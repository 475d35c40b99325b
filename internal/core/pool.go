package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/breaker"
	"repro/internal/evidence"
	"repro/internal/faultpoint"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/transport"
)

// DialFunc opens a fresh connection toward a fixed peer, honoring the
// context while connecting.
type DialFunc func(ctx context.Context) (transport.Conn, error)

// ErrRetriesExhausted reports that every transport-level retry of an
// operation failed; it wraps nothing protocol-fatal, so Upload
// escalates it to Resolve when a TTP dialer is configured.
var ErrRetriesExhausted = errors.New("core: retries exhausted on transient transport faults")

// PoolOptions tune a SessionPool.
type PoolOptions struct {
	// MaxConns bounds concurrently open provider connections (and
	// therefore concurrent protocol runs). Default 8.
	MaxConns int
	// Retries is how many times an operation is retried on transient
	// transport faults before giving up. Default 3.
	Retries int
	// Backoff is the initial retry delay, doubled per attempt.
	// Default 10ms.
	Backoff time.Duration
	// MaxBackoff caps the doubled delay. Without a cap the delay both
	// overflows int64 after ~45 doublings and grows absurd long before
	// that; with one, retries settle into a steady jittered cadence.
	// Default 2s.
	MaxBackoff time.Duration
	// BackoffSeed fixes the jitter randomness for deterministic tests;
	// 0 (the default) seeds from the global random source. Every delay
	// is jittered ±50% around the capped base so N clients retrying a
	// flapped provider spread out instead of synchronizing into retry
	// storms.
	BackoffSeed int64
	// TTPDial, when set, lets Upload escalate a silent provider or
	// exhausted retries to the in-line TTP per §4.3.
	TTPDial DialFunc
	// Breaker, when set, gates every TTP escalation through a circuit
	// breaker: while it is open, Resolve fails fast with
	// ErrTTPUnavailable instead of dialing a TTP known to be down, and
	// the escalation retry loop backs off until the breaker probes.
	Breaker *breaker.Breaker
	// Registry receives the pool's operational metrics (retries,
	// escalations, idle hits/misses); nil means the process default.
	Registry *obs.Registry
	// ShardRing, when set, makes the pool shard-aware: each operation
	// computes its transaction's shard from the same pinned ring the
	// server-side ShardedEngine routes by, BEFORE borrowing a
	// connection, and pins the borrowed connection to that shard's idle
	// list, so each shard's traffic stays on warmed connections of its
	// own.
	ShardRing *shard.Ring
	// AuditInterval, when positive, starts a background storage-dwell
	// audit loop (DESIGN.md §14): every completed upload is challenged
	// on this cadence, and each failure journals conviction-grade
	// evidence in the client archive.
	AuditInterval time.Duration
}

// PoolOption adjusts PoolOptions.
type PoolOption func(*PoolOptions)

// PoolMaxConns bounds the pool's concurrently open connections.
func PoolMaxConns(n int) PoolOption { return func(o *PoolOptions) { o.MaxConns = n } }

// PoolRetries sets the transient-fault retry budget per operation.
func PoolRetries(n int) PoolOption { return func(o *PoolOptions) { o.Retries = n } }

// PoolBackoff sets the initial retry delay (doubled per attempt).
func PoolBackoff(d time.Duration) PoolOption { return func(o *PoolOptions) { o.Backoff = d } }

// PoolMaxBackoff caps the doubled retry delay.
func PoolMaxBackoff(d time.Duration) PoolOption { return func(o *PoolOptions) { o.MaxBackoff = d } }

// PoolBackoffSeed makes the retry jitter deterministic (tests).
func PoolBackoffSeed(seed int64) PoolOption { return func(o *PoolOptions) { o.BackoffSeed = seed } }

// PoolTTPDial enables §4.3 escalation through the given TTP dialer.
func PoolTTPDial(d DialFunc) PoolOption { return func(o *PoolOptions) { o.TTPDial = d } }

// PoolBreaker gates TTP escalations through b (see PoolOptions.Breaker).
func PoolBreaker(b *breaker.Breaker) PoolOption { return func(o *PoolOptions) { o.Breaker = b } }

// PoolRegistry directs the pool's metrics into r instead of the
// process-wide default registry.
func PoolRegistry(r *obs.Registry) PoolOption { return func(o *PoolOptions) { o.Registry = r } }

// PoolShardRing makes the pool route operations by transaction shard
// (see PoolOptions.ShardRing). Pass the same shard count the provider
// runs with.
func PoolShardRing(r *shard.Ring) PoolOption { return func(o *PoolOptions) { o.ShardRing = r } }

// PoolAuditInterval starts the background storage-dwell audit loop on
// the given cadence (see PoolOptions.AuditInterval).
func PoolAuditInterval(d time.Duration) PoolOption {
	return func(o *PoolOptions) { o.AuditInterval = d }
}

// SessionPool multiplexes N concurrent TPNR protocol runs over a
// bounded set of provider connections. Each operation borrows a
// connection (dialing one when the free list is empty), runs the full
// protocol exchange on it, and returns it; transient transport faults
// are retried with exponential backoff on a fresh connection, and an
// upload whose provider stays silent escalates to Resolve exactly as
// §4.3 prescribes.
type SessionPool struct {
	c    *Client
	dial DialFunc
	opt  PoolOptions
	met  *poolMetrics

	sem chan struct{}

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter

	mu sync.Mutex
	// idle holds one free list per shard (a single list when no ring
	// is configured): a released connection is only reused by
	// operations routing to the shard it served.
	idle   [][]transport.Conn
	closed bool

	// auditor runs the background audit sweep (poolaudit.go).
	auditor poolAuditor
}

// NewSessionPool builds a pool running client's protocol over
// connections from dial.
func NewSessionPool(client *Client, dial DialFunc, opts ...PoolOption) *SessionPool {
	o := PoolOptions{MaxConns: 8, Retries: 3, Backoff: 10 * time.Millisecond, MaxBackoff: 2 * time.Second}
	for _, fn := range opts {
		fn(&o)
	}
	if o.MaxConns < 1 {
		o.MaxConns = 1
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = 10 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	seed := o.BackoffSeed
	if seed == 0 {
		seed = rand.Int63()
	}
	reg := o.Registry
	if reg == nil {
		reg = obs.Default()
	}
	lists := 1
	if o.ShardRing != nil {
		lists = o.ShardRing.N()
	}
	p := &SessionPool{
		c:    client,
		dial: dial,
		opt:  o,
		met:  newPoolMetrics(reg),
		sem:  make(chan struct{}, o.MaxConns),
		rng:  rand.New(rand.NewSource(seed)),
		idle: make([][]transport.Conn, lists),
	}
	p.startAuditLoop()
	return p
}

// ShardOf reports which provider shard txnID's operations route to —
// 0 always, without a ring. Exposed so callers (and tests) can verify
// the pool and the server-side engine agree on placement.
func (p *SessionPool) ShardOf(txnID string) int {
	if p.opt.ShardRing == nil {
		return 0
	}
	return p.opt.ShardRing.Shard(txnID)
}

// Client exposes the underlying protocol engine (evidence archive,
// counters).
func (p *SessionPool) Client() *Client { return p.c }

// Upload runs an uploading session through the pool. On ErrTimeout
// (provider went silent after the NRO) or exhausted transport retries,
// and when a TTP dialer is configured, it escalates to Resolve and —
// when the TTP relays the provider's NRR — still returns a complete
// UploadResult.
func (p *SessionPool) Upload(ctx context.Context, txnID, objectKey string, data []byte) (*UploadResult, error) {
	var res *UploadResult
	err := p.do(ctx, txnID, func(conn transport.Conn) error {
		r, err := p.c.Upload(ctx, conn, txnID, objectKey, data)
		if err == nil {
			res = r
		}
		return err
	})
	if err == nil {
		return res, nil
	}
	if p.opt.TTPDial == nil || !escalableUpload(err) {
		return nil, err
	}
	nro, nroErr := p.c.PendingNRO(txnID)
	if nroErr != nil {
		// The NRO never left this side; there is no claim to resolve.
		return nil, err
	}
	p.met.escalations.Inc()
	rr, rerr := p.resolveRetry(ctx, txnID, "no NRR before time limit: "+err.Error())
	if rerr != nil {
		return nil, fmt.Errorf("core: upload failed (%v); resolve also failed: %w", err, rerr)
	}
	if rr.PeerEvidence == nil {
		return nil, fmt.Errorf("%w: TTP outcome %q without provider evidence", ErrTimeout, rr.Outcome)
	}
	if rr.PeerEvidence.Header.Kind == evidence.KindAbortAccept {
		// The provider expired (or abort-closed) the session; the relayed
		// receipt is archived and the transaction is provably aborted —
		// not a completed upload.
		return nil, fmt.Errorf("%w: transaction %s closed by provider abort receipt", ErrExpired, txnID)
	}
	return &UploadResult{TxnID: txnID, NRO: nro, NRR: rr.PeerEvidence}, nil
}

// Download runs a downloading session through the pool.
func (p *SessionPool) Download(ctx context.Context, txnID, objectKey, uploadTxn string) (*DownloadResult, error) {
	var res *DownloadResult
	err := p.do(ctx, txnID, func(conn transport.Conn) error {
		r, err := p.c.Download(ctx, conn, txnID, objectKey, uploadTxn)
		if err == nil {
			res = r
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Abort cancels a transaction through the pool.
func (p *SessionPool) Abort(ctx context.Context, txnID, reason string) (*AbortResult, error) {
	var res *AbortResult
	err := p.do(ctx, txnID, func(conn transport.Conn) error {
		r, err := p.c.Abort(ctx, conn, txnID, reason)
		if err == nil {
			res = r
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Resolve escalates a transaction to the TTP over a dedicated
// connection from the configured TTP dialer, gated by the circuit
// breaker when one is configured: an open breaker fails fast with
// ErrTTPUnavailable, and each attempt's outcome feeds the breaker.
func (p *SessionPool) Resolve(ctx context.Context, txnID, report string) (*ResolveResult, error) {
	if p.opt.TTPDial == nil {
		return nil, fmt.Errorf("core: pool has no TTP dialer (use PoolTTPDial)")
	}
	if br := p.opt.Breaker; br != nil && !br.Allow() {
		p.met.ttpFastFails.Inc()
		return nil, fmt.Errorf("%w: not dialing for txn %s", ErrTTPUnavailable, txnID)
	}
	if err := faultpoint.HitErr(fpPoolTTPBlackhole); err != nil {
		err = fmt.Errorf("core: dialing TTP: %w", err)
		p.breakerResult(err)
		return nil, err
	}
	conn, err := p.opt.TTPDial(ctx)
	if err != nil {
		err = fmt.Errorf("core: dialing TTP: %w", err)
		p.breakerResult(err)
		return nil, err
	}
	defer conn.Close()
	res, err := p.c.Resolve(ctx, conn, txnID, report)
	p.breakerResult(err)
	return res, err
}

// breakerResult feeds one escalation outcome to the breaker. Caller
// cancellation says nothing about the TTP and records neither way; a
// definitive protocol answer (even a rejection) proves the TTP is up.
func (p *SessionPool) breakerResult(err error) {
	br := p.opt.Breaker
	if br == nil {
		return
	}
	switch {
	case err == nil:
		br.OnSuccess()
	case errors.Is(err, ErrCancelled):
	case errors.Is(err, ErrPeerRejected), errors.Is(err, ErrProtocol):
		br.OnSuccess()
	default:
		br.OnFailure()
	}
}

// resolveRetry is the queued-retry escalation loop: a fast-failed
// (breaker open), timed-out or transport-broken Resolve is retried
// with the pool's jittered backoff budget rather than abandoned, so a
// TTP blip does not strand a disputable transaction.
func (p *SessionPool) resolveRetry(ctx context.Context, txnID, report string) (*ResolveResult, error) {
	backoff := p.opt.Backoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := CheckContext(ctx); err != nil {
			return nil, err
		}
		res, err := p.Resolve(ctx, txnID, report)
		if err == nil {
			return res, nil
		}
		if !retryableResolve(err) {
			return nil, err
		}
		lastErr = err
		if attempt >= p.opt.Retries {
			return nil, fmt.Errorf("%w: last error: %w", ErrRetriesExhausted, lastErr)
		}
		p.met.retries.Inc()
		var delay time.Duration
		delay, backoff = jitterBackoff(backoff, p.opt.MaxBackoff, p.randInt63n)
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, CheckContext(ctx)
		}
	}
}

// retryableResolve classifies escalation errors: breaker fast-fails
// and TTP timeouts are retried (the whole point of queued retry), on
// top of the ordinary transient transport faults.
func retryableResolve(err error) bool {
	if errors.Is(err, ErrTTPUnavailable) || errors.Is(err, ErrTimeout) {
		return true
	}
	return transientFault(err)
}

// do borrows a connection slot and runs op, retrying transient
// transport faults on a fresh connection with capped, jittered
// exponential backoff. Protocol-level outcomes (ErrTimeout,
// ErrProtocol, ErrPeerRejected, ErrIntegrity, ErrUnknownIdentity) and
// caller cancellation are never retried — retrying cannot change them.
// The transaction's shard is computed once, up front, so every
// acquire/release (including retries) pins to the same shard.
func (p *SessionPool) do(ctx context.Context, txnID string, op func(transport.Conn) error) error {
	si := p.ShardOf(txnID)
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return CheckContext(ctx)
	}
	defer func() { <-p.sem }()

	backoff := p.opt.Backoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := CheckContext(ctx); err != nil {
			return err
		}
		conn, err := p.acquire(ctx, si)
		if err == nil {
			err = op(conn)
			if err == nil {
				p.release(conn, si)
				return nil
			}
			// The connection's protocol state is unknown mid-failure:
			// discard it rather than poison the free list.
			conn.Close()
			if !transientFault(err) {
				return err
			}
		} else if !transientFault(err) {
			return err
		}
		lastErr = err
		if attempt >= p.opt.Retries {
			// %w on the last error: callers classify the exhausted result
			// (was it overload? degraded mode?) through the chain.
			return fmt.Errorf("%w: last error: %w", ErrRetriesExhausted, lastErr)
		}
		p.met.retries.Inc()
		var delay time.Duration
		delay, backoff = jitterBackoff(backoff, p.opt.MaxBackoff, p.randInt63n)
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return CheckContext(ctx)
		}
	}
}

// randInt63n draws from the pool's jitter source (do runs on many
// goroutines; math/rand.Rand is not concurrency-safe).
func (p *SessionPool) randInt63n(n int64) int64 {
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	return p.rng.Int63n(n)
}

// jitterBackoff turns the current backoff base into the actual sleep
// and the next base. The base is capped at max BEFORE jittering, the
// sleep is drawn uniformly from [base/2, 3*base/2) — ±50%, so clients
// that failed together desynchronize — and the next base doubles with
// an overflow-proof clamp (the old unbounded doubling overflowed int64
// after ~45 attempts and produced negative timer values).
func jitterBackoff(cur, max time.Duration, randInt63n func(int64) int64) (delay, next time.Duration) {
	if cur > max {
		cur = max
	}
	if cur <= 0 {
		cur = time.Millisecond
	}
	delay = cur/2 + time.Duration(randInt63n(int64(cur)))
	if cur > max/2 {
		next = max
	} else {
		next = cur * 2
	}
	return delay, next
}

// escalableUpload reports whether a failed upload is §4.3 grounds for
// the TTP escalation path: a silent provider (ErrTimeout), an expired
// session (the provider holds an abort receipt for us to collect), or
// exhausted transport retries. Overload, degraded-mode and
// quorum-unavailable refusals are NOT — the provider answered; there
// is no dispute, only a peer asking us to come back later.
func escalableUpload(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrExpired) ||
		(errors.Is(err, ErrRetriesExhausted) &&
			!errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrDegraded) &&
			!errors.Is(err, ErrQuorumUnavailable))
}

// transientFault reports whether an error is worth retrying on a new
// connection: transport breakage and overload sheds are, definitive
// protocol outcomes (including permanent rejections, expiry and
// degraded-mode refusals) and cancellation are not — retrying cannot
// change a signed answer.
func transientFault(err error) bool {
	if errors.Is(err, ErrOverloaded) {
		// The peer shed us under admission control: explicitly retryable
		// (with backoff), and checked first because the control frame
		// carries no protocol sentinel to trip the list below.
		return true
	}
	if errors.Is(err, ErrQuorumUnavailable) {
		// The provider's replication group lost its write quorum — a
		// transient cluster condition that anti-entropy repairs without
		// operator action, so retry with backoff (and, above, never
		// escalate: the provider answered with a signed refusal).
		return true
	}
	switch {
	case errors.Is(err, ErrCancelled),
		errors.Is(err, ErrTimeout),
		errors.Is(err, ErrProtocol),
		errors.Is(err, ErrPeerRejected),
		errors.Is(err, ErrIntegrity),
		errors.Is(err, ErrUnknownIdentity),
		errors.Is(err, ErrExpired),
		errors.Is(err, ErrDegraded):
		return false
	}
	return true
}

// acquire pops an idle connection from shard si's free list or dials a
// new one.
func (p *SessionPool) acquire(ctx context.Context, si int) (transport.Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: session pool closed", ErrCancelled)
	}
	if n := len(p.idle[si]); n > 0 {
		conn := p.idle[si][n-1]
		p.idle[si] = p.idle[si][:n-1]
		p.mu.Unlock()
		p.met.idleHits.Inc()
		return conn, nil
	}
	p.mu.Unlock()
	p.met.idleMisses.Inc()
	return p.dial(ctx)
}

// release returns a healthy connection to shard si's free list.
func (p *SessionPool) release(conn transport.Conn, si int) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.idle[si] = append(p.idle[si], conn)
	p.mu.Unlock()
}

// Close stops the background audit loop and discards the pool's idle
// connections; operations already in flight finish on their borrowed
// connections.
func (p *SessionPool) Close() error {
	p.stopAuditLoop()
	p.mu.Lock()
	idle := p.idle
	p.idle = make([][]transport.Conn, len(p.idle))
	p.closed = true
	p.mu.Unlock()
	for _, list := range idle {
		for _, c := range list {
			c.Close()
		}
	}
	return nil
}
