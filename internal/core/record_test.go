package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/metrics"
	"repro/internal/session"
	"repro/internal/wire"
)

// bareParty is a party with records and a nonce window but no
// identity, journal or archive: enough to drive the record paths.
func bareParty(clk clock.Clock, step time.Duration) *party {
	return &party{guard: session.NewGuard(0), clk: clk, ctr: &metrics.Counters{}, deadline: DeadlinePolicy{Step: step}}
}

func inbound(txn, sender string, seq uint64) *evidence.Header {
	return &evidence.Header{Kind: evidence.KindNRO, TxnID: txn, SenderID: sender, Seq: seq, Nonce: cryptoutil.MustNonce()}
}

// accept runs both halves of the inbound check, as checkInbound does
// around the seal.
func (p *party) accept(h *evidence.Header) error {
	if err := p.fresh(h); err != nil {
		return err
	}
	return p.admit(h)
}

// TestRecordOutboundSequence: a transaction's outbound numbers start at
// 1 and rise by one, never repeat under concurrency, and skip past an
// observed number in constant time without ever going backwards.
func TestRecordOutboundSequence(t *testing.T) {
	p := bareParty(clock.Real(), 0)
	for want := uint64(1); want <= 100; want++ {
		if got := p.nextSeq("t1"); got != want {
			t.Fatalf("nextSeq = %d, want %d", got, want)
		}
	}
	seen := make([][]uint64, 8)
	var wg sync.WaitGroup
	for i := range seen {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				seen[i] = append(seen[i], p.nextSeq("t2"))
			}
		}(i)
	}
	wg.Wait()
	all := map[uint64]bool{}
	for _, list := range seen {
		for _, v := range list {
			if all[v] {
				t.Fatalf("sequence %d issued twice", v)
			}
			all[v] = true
		}
	}
	if len(all) != 4000 {
		t.Fatalf("issued %d unique sequence numbers, want 4000", len(all))
	}
	if got := p.bumpSeqTo("t3", 1<<62); got != 1<<62+1 {
		t.Fatalf("bumpSeqTo past 2^62 = %d", got)
	}
	if got := p.bumpSeqTo("t3", 5); got != 1<<62+2 {
		t.Fatalf("bumpSeqTo backwards = %d", got)
	}
}

// TestRecordInboundFloors: each sender's numbers within a transaction
// must rise (gaps are fine); senders and transactions are independent;
// the pure check changes nothing, and a refused message leaves the
// floor where it was.
func TestRecordInboundFloors(t *testing.T) {
	p := bareParty(clock.Real(), 0)
	for _, seq := range []uint64{1, 2, 3, 10, 100} {
		if err := p.accept(inbound("t1", "alice", seq)); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
	}
	for _, seq := range []uint64{100, 99, 1} {
		if err := p.accept(inbound("t1", "alice", seq)); !errors.Is(err, session.ErrOutOfOrder) {
			t.Fatalf("seq %d after 100: err = %v, want ErrOutOfOrder", seq, err)
		}
	}
	if err := p.accept(inbound("t1", "ttp", 1)); err != nil {
		t.Fatalf("another sender's seq 1: %v", err)
	}
	if err := p.accept(inbound("t2", "alice", 1)); err != nil {
		t.Fatalf("another transaction's seq 1: %v", err)
	}
	// Checked, never admitted: a frame whose seal would not open.
	if err := p.fresh(inbound("t3", "alice", 1<<40)); err != nil {
		t.Fatal(err)
	}
	if p.view("t3", func(*txnRecord) {}) {
		t.Fatal("the pure check created a record")
	}
	if err := p.accept(inbound("t3", "alice", 1)); err != nil {
		t.Fatalf("seq 1 after an unadmitted 2^40: %v", err)
	}
	// A replayed nonce is refused and leaves the floor alone.
	h := inbound("t3", "alice", 2)
	if err := p.accept(h); err != nil {
		t.Fatal(err)
	}
	dup := *h
	dup.Seq = 50
	if err := p.accept(&dup); !errors.Is(err, session.ErrReplay) {
		t.Fatalf("replayed nonce: err = %v, want ErrReplay", err)
	}
	if err := p.accept(inbound("t3", "alice", 3)); err != nil {
		t.Fatalf("floor moved on a refused message: %v", err)
	}
}

// TestRecoveredFloorsBlockReplays: evidence restored by recovery puts
// its sender's floor and its nonce back, so the party keeps refusing
// replays of what it accepted before the crash.
func TestRecoveredFloorsBlockReplays(t *testing.T) {
	p := bareParty(clock.Real(), 0)
	nonce := []byte("nonce-1")
	ev := &evidence.Evidence{Header: &evidence.Header{Kind: evidence.KindNRO, TxnID: "txn", SenderID: "alice", Seq: 3, Nonce: nonce}}
	p.update("txn", func(r *txnRecord) { p.restoreEvidence(r, evidence.RolePeer, ev) })
	if err := p.accept(inbound("txn", "alice", 3)); err == nil {
		t.Fatal("restored sequence re-admitted")
	}
	h := inbound("txn", "alice", 4)
	h.Nonce = nonce
	if err := p.accept(h); err == nil {
		t.Fatal("restored nonce re-admitted")
	}
	if err := p.accept(inbound("txn", "alice", 4)); err != nil {
		t.Fatalf("fresh message rejected after recovery: %v", err)
	}
}

// TestRecordStateAndDeadlines: transitions out of a terminal state are
// refused; every accepted transition restamps the step deadline and a
// terminal one clears it; an overdue transaction is reported once, and
// a terminal or deadline-less one never.
func TestRecordStateAndDeadlines(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1000, 0))
	p := bareParty(vc, time.Second)
	for _, txn := range []string{"a", "b", "done"} {
		if err := p.setState(txn, session.StateEvidenceReceived); err != nil {
			t.Fatal(err)
		}
	}
	p.begin("init-only")
	if st, known := p.stateOf("init-only"); !known || st != session.StateInit {
		t.Fatalf("begun transaction is %v (known %v), want init", st, known)
	}
	if err := p.setState("done", session.StateCompleted); err != nil {
		t.Fatal(err)
	}
	if err := p.setState("done", session.StateAborted); !errors.Is(err, session.ErrTxncompleted) {
		t.Fatalf("transition out of completed: err = %v, want ErrTxncompleted", err)
	}
	if st, _ := p.stateOf("done"); st != session.StateCompleted {
		t.Fatalf("refused transition applied: state %v", st)
	}
	if got := p.overdue(vc.Now()); len(got) != 0 {
		t.Fatalf("overdue before any deadline = %v", got)
	}
	vc.Advance(500 * time.Millisecond)
	if err := p.setState("b", session.StateResolving); err != nil { // restamps b
		t.Fatal(err)
	}
	vc.Advance(600 * time.Millisecond)
	if got := p.overdue(vc.Now()); len(got) != 1 || got[0] != "a" {
		t.Fatalf("overdue = %v, want [a]", got)
	}
	if got := p.overdue(vc.Now()); len(got) != 0 {
		t.Fatalf("a reported twice: %v", got)
	}
	vc.Advance(time.Hour)
	if got := p.overdue(vc.Now()); len(got) != 1 || got[0] != "b" {
		t.Fatalf("overdue after restamp = %v, want [b]", got)
	}
}

// TestRecordEvidence: evidence files by role in arrival order, the
// latest of a kind wins, replaying an item adds nothing, and HotTxns
// lists every record in order.
func TestRecordEvidence(t *testing.T) {
	p := bareParty(clock.Real(), 0)
	item := func(kind evidence.Kind, txn string, seq uint64) *evidence.Evidence {
		return &evidence.Evidence{Header: &evidence.Header{Kind: kind, TxnID: txn, SenderID: "alice", Seq: seq, Nonce: cryptoutil.MustNonce()}}
	}
	first, second := item(evidence.KindNRO, "t1", 1), item(evidence.KindNRO, "t1", 2)
	challenge := item(evidence.KindAuditChallenge, "t1", 3)
	for _, ev := range []*evidence.Evidence{first, second, challenge, second} {
		p.update("t1", func(r *txnRecord) { r.add(evidence.RolePeer, ev) })
	}
	if got := p.hotByKind("t1", evidence.RolePeer, evidence.KindNRO); got != second {
		t.Fatalf("latest NRO = seq %d, want 2", got.Header.Seq)
	}
	if got := p.hotByKind("t1", evidence.RolePeer, evidence.KindAuditChallenge); got != challenge {
		t.Fatal("audit challenge not found by kind")
	}
	if got := p.hotByKind("t1", evidence.RoleOwn, evidence.KindNRO); got != nil {
		t.Fatal("peer evidence found under the own role")
	}
	p.view("t1", func(r *txnRecord) {
		if len(r.ev[roleIndex(evidence.RolePeer)]) != 3 {
			t.Fatalf("peer items = %d, want 3 (a replayed item was duplicated)", len(r.ev[1]))
		}
	})
	p.nextSeq("t0")
	if got := p.HotTxns(); fmt.Sprint(got) != "[t0 t1]" {
		t.Fatalf("HotTxns = %v", got)
	}
}

// TestRecordConcurrent drives one party's records from many goroutines
// (run it under -race): of two copies of one valid message admitted at
// once, exactly one passes the atomic re-check, while outbound numbers,
// evidence and state move on other transactions of the same stripes.
func TestRecordConcurrent(t *testing.T) {
	p := bareParty(clock.Real(), time.Minute)
	const txns = 64
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < txns; i++ {
		h := inbound(fmt.Sprintf("dup-%d", i), "alice", 1)
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if p.accept(h) == nil {
					admitted.Add(1)
				}
			}()
		}
		wg.Add(1)
		go func(txn string) {
			defer wg.Done()
			p.nextSeq(txn)
			p.setState(txn, session.StateEvidenceSent)
			p.update(txn, func(r *txnRecord) { r.add(evidence.RoleOwn, &evidence.Evidence{Header: inbound(txn, "bob", 1)}) })
			p.overdue(time.Now())
			p.HotTxns()
		}(fmt.Sprintf("other-%d", i))
	}
	wg.Wait()
	if got := admitted.Load(); got != txns {
		t.Fatalf("%d of %d duplicated messages admitted, want exactly one copy each", got, 2*txns)
	}
}

// TestRestoreSnapshotV1: a tpnr-snapshot-v1 payload — live records,
// then the archived-transaction index v2 no longer writes — still
// loads, the index read past.
func TestRestoreSnapshotV1(t *testing.T) {
	e := wire.NewEncoder(128)
	e.String(snapshotMagicV1)
	e.U32(1)
	e.String("live").Bool(true).U8(uint8(session.StateEvidenceSent)).U64(7).String("").Bool(false).U32(0).U32(0)
	e.U32(1)
	e.String("compacted").U8(uint8(session.StateCompleted))
	p := bareParty(clock.Real(), 0)
	rep := &RecoveryReport{}
	if err := p.restoreSnapshot(e.Bytes(), rep, map[string]bool{}); err != nil {
		t.Fatalf("restoring a v1 snapshot: %v", err)
	}
	if st, known := p.stateOf("live"); !known || st != session.StateEvidenceSent {
		t.Fatalf("live record restored as %v (known %v)", st, known)
	}
	if got := p.nextSeq("live"); got != 8 {
		t.Fatalf("outbound sequence after restore = %d, want 8", got)
	}
	if fmt.Sprint(rep.Transactions, p.HotTxns()) != "[live] [live]" {
		t.Fatalf("restored %v, records %v; want only the live one", rep.Transactions, p.HotTxns())
	}
}

// TestRestoreSnapshotBadMagic: an unrecognised snapshot is refused with
// the wire's bounded magic error, not a copy of whatever it carries.
func TestRestoreSnapshotBadMagic(t *testing.T) {
	e := wire.NewEncoder(4096)
	e.String(strings.Repeat("x", 4000))
	err := bareParty(clock.Real(), 0).restoreSnapshot(e.Bytes(), &RecoveryReport{}, map[string]bool{})
	if err == nil || len(err.Error()) > 200 {
		t.Fatalf("restoring a snapshot with a 4,000-byte magic: %v", err)
	}
}
