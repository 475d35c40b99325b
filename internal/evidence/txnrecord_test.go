package evidence_test

// A party files the evidence of a live transaction in the protocol
// engine's transaction record (internal/core), by role and in arrival
// order. These tests hold that filing to the contracts a reader of
// evidence relies on — lookup by role and kind, latest of a kind wins,
// ErrNoEvidence for what is not there, the sorted list of live
// transactions — through core's exported party surface (core.TTPParty).

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/pki"
)

// holderAndPeer returns a party that files evidence and a peer whose
// evidence it files, enrolled under one fresh CA.
func holderAndPeer(t *testing.T) (holder, peer *core.TTPParty) {
	t.Helper()
	scheme := cryptoutil.SchemeEd25519
	ca := pki.NewAuthority("ca", cryptoutil.InsecureTestKeyScheme(130, scheme))
	now := time.Now()
	party := func(name string, slot int) *core.TTPParty {
		id, err := pki.NewIdentity(ca, name, cryptoutil.InsecureTestKeyScheme(slot, scheme), now.Add(-time.Hour), now.Add(24*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewTTPParty(core.WithIdentity(id), core.WithCAPublicKey(ca.Key()), core.WithDirectory(core.Directory(ca.Lookup)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return party("holder", 131), party("peer", 132)
}

// build signs from's next evidence of kind for txn, addressed to to.
func build(t *testing.T, from *core.TTPParty, to string, kind evidence.Kind, txn string) *evidence.Evidence {
	t.Helper()
	key, err := from.PeerPublicKey(to)
	if err != nil {
		t.Fatal(err)
	}
	h := from.NewHeader(kind, txn, to, "ttp", from.NextSeq(txn))
	h.SetDigests([]byte("data"))
	_, ev, err := from.BuildMessageFor(h, []byte("data"), key)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func put(t *testing.T, holder *core.TTPParty, role evidence.Role, ev *evidence.Evidence) {
	t.Helper()
	if err := holder.PutEvidence(ev.Header.TxnID, role, ev); err != nil {
		t.Fatal(err)
	}
}

func TestStorePutGet(t *testing.T) {
	holder, _ := holderAndPeer(t)
	ev := build(t, holder, "peer", evidence.KindNRO, "t1")
	put(t, holder, evidence.RoleOwn, ev)

	got, err := holder.EvidenceByKind("t1", evidence.RoleOwn, evidence.KindNRO)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.TxnID != "t1" || got.Header.Seq != ev.Header.Seq {
		t.Fatalf("got txn %s seq %d", got.Header.TxnID, got.Header.Seq)
	}
	if _, err := holder.EvidenceByKind("t1", evidence.RolePeer, evidence.KindNRO); !errors.Is(err, evidence.ErrNoEvidence) {
		t.Fatalf("missing role: %v", err)
	}
	if _, err := holder.EvidenceByKind("ghost", evidence.RoleOwn, evidence.KindNRO); !errors.Is(err, evidence.ErrNoEvidence) {
		t.Fatalf("missing txn: %v", err)
	}
}

func TestStoreLatestWins(t *testing.T) {
	holder, peer := holderAndPeer(t)
	first := build(t, peer, "holder", evidence.KindNRO, "t1")
	receipt := build(t, peer, "holder", evidence.KindNRR, "t1")
	second := build(t, peer, "holder", evidence.KindNRO, "t1")
	for _, ev := range []*evidence.Evidence{first, receipt, second} {
		put(t, holder, evidence.RolePeer, ev)
	}
	got, err := holder.EvidenceByKind("t1", evidence.RolePeer, evidence.KindNRO)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Seq != second.Header.Seq {
		t.Fatalf("latest NRO = seq %d, want %d", got.Header.Seq, second.Header.Seq)
	}
	if got, err := holder.EvidenceByKind("t1", evidence.RolePeer, evidence.KindNRR); err != nil || got.Header.Seq != receipt.Header.Seq {
		t.Fatalf("NRR filed between the NROs: %v %v", got, err)
	}
}

func TestStoreByKind(t *testing.T) {
	holder, peer := holderAndPeer(t)
	put(t, holder, evidence.RolePeer, build(t, peer, "holder", evidence.KindNRO, "t1"))
	put(t, holder, evidence.RolePeer, build(t, peer, "holder", evidence.KindAbortAccept, "t1"))

	got, err := holder.EvidenceByKind("t1", evidence.RolePeer, evidence.KindNRO)
	if err != nil || got.Header.Kind != evidence.KindNRO {
		t.Fatalf("ByKind NRO: %v %v", got, err)
	}
	if _, err := holder.EvidenceByKind("t1", evidence.RolePeer, evidence.KindNRR); !errors.Is(err, evidence.ErrNoEvidence) {
		t.Fatalf("absent kind: %v", err)
	}
	if _, err := holder.EvidenceByKind("t1", evidence.RoleOwn, evidence.KindAbortAccept); !errors.Is(err, evidence.ErrNoEvidence) {
		t.Fatalf("peer evidence found under the own role: %v", err)
	}
}

func TestStoreTransactions(t *testing.T) {
	holder, peer := holderAndPeer(t)
	for _, txn := range []string{"t-c", "t-a", "t-b"} {
		put(t, holder, evidence.RolePeer, build(t, peer, "holder", evidence.KindNRO, txn))
	}
	if got := fmt.Sprint(holder.HotTxns()); got != "[t-a t-b t-c]" {
		t.Fatalf("HotTxns = %s", got)
	}
}
