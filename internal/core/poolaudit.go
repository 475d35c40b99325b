package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/evidence"
	"repro/internal/transport"
)

// DefaultAuditChallenges is how many leaves a sweep challenges per
// session (a handful keeps audits cheap while each sweep samples fresh
// random leaves).
const DefaultAuditChallenges = 4

// Background storage-dwell auditing for the session pool (DESIGN.md
// §14). Every upload whose receipt the client holds is auditable; when
// PoolAuditInterval is set, a background loop sweeps them on that
// cadence, borrowing connections
// through the same shard-pinned free lists the foreground traffic
// uses. Each failed audit leaves a journaled unanswered (or
// ill-answered) challenge — conviction material, not just a metric.

// poolAuditor tracks the sweep goroutine's lifecycle.
type poolAuditor struct {
	// stop is guarded by mu; the running loop holds its own reference.
	mu   sync.Mutex
	stop chan struct{}
	wg   sync.WaitGroup
}

// AuditableTxns lists the sessions the pool will sweep: every upload,
// live or compacted, whose receipt the client holds.
func (p *SessionPool) AuditableTxns() []string {
	return p.c.txnsHolding(evidence.RolePeer, evidence.KindNRR)
}

// Audit runs one n-leaf challenge-response round for txnID through
// the pool, with the same shard pinning, retry and backoff policy as
// the protocol operations. The report's challenge and any response
// are journaled in the client archive either way.
func (p *SessionPool) Audit(ctx context.Context, txnID string, n int) (*AuditReport, error) {
	var rep *AuditReport
	err := p.do(ctx, txnID, func(conn transport.Conn) error {
		r, aerr := p.c.AuditObject(ctx, conn, txnID, n)
		if aerr == nil {
			rep = r
		}
		return aerr
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// startAuditLoop launches the periodic sweep when an interval is
// configured. Challenge content randomness (indices, nonces) comes
// from crypto/rand inside the audit package; only the sweep cadence
// lives here. The stop channel is captured locally and handed to the
// goroutine so the loop never races stopAuditLoop's teardown writes.
func (p *SessionPool) startAuditLoop() {
	if p.opt.AuditInterval <= 0 {
		return
	}
	stop := make(chan struct{})
	p.auditor.mu.Lock()
	p.auditor.stop = stop
	p.auditor.mu.Unlock()
	p.auditor.wg.Add(1)
	go func() {
		defer p.auditor.wg.Done()
		t := time.NewTicker(p.opt.AuditInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				p.auditSweep(stop)
			}
		}
	}()
}

// auditSweep challenges every auditable session once. Failures are
// already counted and journaled by AuditObject; the sweep keeps going
// so one lazy session cannot shield the rest.
func (p *SessionPool) auditSweep(stop <-chan struct{}) {
	for _, txn := range p.AuditableTxns() {
		select {
		case <-stop:
			return
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), p.c.timeout)
		_, _ = p.Audit(ctx, txn, DefaultAuditChallenges)
		cancel()
	}
}

// stopAuditLoop terminates the sweep goroutine, if one is running.
// The swap-under-lock makes concurrent Close calls safe: exactly one
// caller observes the live channel and closes it.
func (p *SessionPool) stopAuditLoop() {
	p.auditor.mu.Lock()
	stop := p.auditor.stop
	p.auditor.stop = nil
	p.auditor.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	p.auditor.wg.Wait()
}
