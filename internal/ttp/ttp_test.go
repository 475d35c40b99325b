package ttp_test

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/pki"
)

func newDeploy(t *testing.T) *deploy.Deployment {
	t.Helper()
	d, err := deploy.New(deploy.Config{TestKeys: true, ResponseTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// rawParty enrolls a fresh identity with the deployment CA and returns
// raw message-building plumbing for it, so tests can craft resolve
// requests the Client API would never send.
func rawParty(t *testing.T, d *deploy.Deployment, name string, keySlot int) *core.TTPParty {
	t.Helper()
	now := time.Now()
	id, err := pki.NewIdentity(d.CA, name, cryptoutil.InsecureTestKey(keySlot), now.Add(-time.Hour), now.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewTTPParty(
		core.WithIdentity(id),
		core.WithCAPublicKey(d.CA.Key()),
		core.WithDirectory(core.Directory(d.CA.Lookup)),
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// buildResolve crafts a resolve request from the raw party toward the
// TTP, embedding the given payload bytes.
func buildResolve(t *testing.T, d *deploy.Deployment, p *core.TTPParty, txn string, payload []byte) []byte {
	t.Helper()
	ttpKey, err := p.PeerPublicKey(deploy.TTPName)
	if err != nil {
		t.Fatal(err)
	}
	h := p.NewHeader(evidence.KindResolveRequest, txn, deploy.TTPName, deploy.TTPName, p.NextSeq(txn))
	h.Note = "test anomaly report"
	h.SetDigests(nil)
	msg, _, err := p.BuildMessageFor(h, payload, ttpKey)
	if err != nil {
		t.Fatal(err)
	}
	return msg.Encode()
}

// decodeStatement opens the TTP's response at the raw party.
func decodeStatement(t *testing.T, p *core.TTPParty, raw []byte) *evidence.Header {
	t.Helper()
	if raw == nil {
		t.Fatal("TTP stayed silent, expected a statement")
	}
	m, err := core.DecodeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := p.CheckInbound(m)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// ownEvidence builds evidence the raw party legitimately signed, for a
// given transaction and recipient.
func ownEvidence(t *testing.T, p *core.TTPParty, txn, recipient string) *evidence.Evidence {
	t.Helper()
	recipKey, err := p.PeerPublicKey(recipient)
	if err != nil {
		t.Fatal(err)
	}
	h := p.NewHeader(evidence.KindNRO, txn, recipient, deploy.TTPName, p.NextSeq(txn))
	h.SetDigests([]byte("claimed data"))
	_, ev, err := p.BuildMessageFor(h, nil, recipKey)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestResolveWithoutEvidenceRejected(t *testing.T) {
	d := newDeploy(t)
	mallory := rawParty(t, d, "mallory", 40)
	raw, _ := d.TTPServer.Handle(buildResolve(t, d, mallory, "txn-x", nil))
	h := decodeStatement(t, mallory, raw)
	if !strings.Contains(h.Note, "no evidence") {
		t.Fatalf("note = %q", h.Note)
	}
}

func TestResolveMalformedEvidenceRejected(t *testing.T) {
	d := newDeploy(t)
	mallory := rawParty(t, d, "mallory2", 41)
	raw, _ := d.TTPServer.Handle(buildResolve(t, d, mallory, "txn-y", []byte("not evidence")))
	h := decodeStatement(t, mallory, raw)
	if !strings.Contains(h.Note, "malformed") {
		t.Fatalf("note = %q", h.Note)
	}
}

func TestResolveMismatchedClaimRejected(t *testing.T) {
	d := newDeploy(t)
	mallory := rawParty(t, d, "mallory3", 42)
	// Evidence for a DIFFERENT transaction than the claim.
	ev := ownEvidence(t, mallory, "txn-other", deploy.ProviderName)
	raw, _ := d.TTPServer.Handle(buildResolve(t, d, mallory, "txn-claimed", ev.Encode()))
	h := decodeStatement(t, mallory, raw)
	if !strings.Contains(h.Note, "does not match claim") {
		t.Fatalf("note = %q", h.Note)
	}
}

func TestResolveStolenEvidenceRejected(t *testing.T) {
	d := newDeploy(t)
	mallory := rawParty(t, d, "mallory4", 43)
	victim := rawParty(t, d, "victim", 44)
	// Mallory submits the VICTIM's evidence under her own resolve
	// request: the claimant/evidence-signer mismatch must be caught.
	stolen := ownEvidence(t, victim, "txn-stolen", deploy.ProviderName)
	raw, _ := d.TTPServer.Handle(buildResolve(t, d, mallory, "txn-stolen", stolen.Encode()))
	h := decodeStatement(t, mallory, raw)
	if !strings.Contains(h.Note, "does not match claim") {
		t.Fatalf("note = %q", h.Note)
	}
}

func TestResolveTamperedEvidenceRejected(t *testing.T) {
	d := newDeploy(t)
	mallory := rawParty(t, d, "mallory5", 45)
	ev := ownEvidence(t, mallory, "txn-t", deploy.ProviderName)
	// Mutate the signed digest: signature must fail at the TTP.
	ev.Header.DataMD5 = cryptoutil.Sum(cryptoutil.MD5, []byte("forged"))
	raw, _ := d.TTPServer.Handle(buildResolve(t, d, mallory, "txn-t", ev.Encode()))
	h := decodeStatement(t, mallory, raw)
	if !strings.Contains(h.Note, "does not verify") {
		t.Fatalf("note = %q", h.Note)
	}
}

func TestResolveUnreachablePeer(t *testing.T) {
	d := newDeploy(t)
	mallory := rawParty(t, d, "mallory6", 46)
	// ghost-provider has a certificate (so the TTP considers it) but no
	// listener anywhere.
	rawParty(t, d, "ghost-provider", 47)
	ev := ownEvidence(t, mallory, "txn-u", "ghost-provider")
	raw, _ := d.TTPServer.Handle(buildResolve(t, d, mallory, "txn-u", ev.Encode()))
	h := decodeStatement(t, mallory, raw)
	if h.Note != "peer-unreachable" {
		t.Fatalf("note = %q", h.Note)
	}
}

func TestWrongKindRejected(t *testing.T) {
	d := newDeploy(t)
	mallory := rawParty(t, d, "mallory7", 48)
	ttpKey, err := mallory.PeerPublicKey(deploy.TTPName)
	if err != nil {
		t.Fatal(err)
	}
	h := mallory.NewHeader(evidence.KindNRO, "txn-k", deploy.TTPName, deploy.TTPName, mallory.NextSeq("txn-k"))
	h.SetDigests(nil)
	msg, _, err := mallory.BuildMessageFor(h, nil, ttpKey)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := d.TTPServer.Handle(msg.Encode())
	rh := decodeStatement(t, mallory, raw)
	if !strings.Contains(rh.Note, "unsupported request kind") {
		t.Fatalf("note = %q", rh.Note)
	}
}

func TestGarbageSilentlyDropped(t *testing.T) {
	d := newDeploy(t)
	got, err := d.TTPServer.Handle([]byte("complete garbage"))
	if got != nil {
		t.Fatalf("TTP answered garbage with %d bytes", len(got))
	}
	if !errors.Is(err, core.ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
}

func TestUnenrolledSenderDropped(t *testing.T) {
	d := newDeploy(t)
	// An identity signed by a DIFFERENT CA: the TTP must not answer.
	otherCA := pki.NewAuthority("evil-ca", cryptoutil.InsecureTestKey(49))
	now := time.Now()
	id, err := pki.NewIdentity(otherCA, "outsider", cryptoutil.InsecureTestKey(50), now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// The outsider's own view of the world includes a "ttp" certified
	// by the evil CA; the real TTP still must not answer.
	if _, err := pki.NewIdentity(otherCA, deploy.TTPName, cryptoutil.InsecureTestKey(51), now.Add(-time.Hour), now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	p, err := core.NewTTPParty(
		core.WithIdentity(id),
		core.WithCAPublicKey(otherCA.Key()),
		core.WithDirectory(core.Directory(otherCA.Lookup)),
	)
	if err != nil {
		t.Fatal(err)
	}
	msg := buildResolve(t, d, p, "txn-o", nil)
	if got, _ := d.TTPServer.Handle(msg); got != nil {
		t.Fatal("TTP answered a sender from a foreign CA")
	}
}

// TestTTPHandleNeverPanics: random garbage at the TTP entry point
// must neither panic nor elicit a response.
func TestTTPHandleNeverPanics(t *testing.T) {
	d := newDeploy(t)
	f := func(raw []byte) bool {
		reply, _ := d.TTPServer.Handle(raw)
		return reply == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
