package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/clock"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/metrics"
	"repro/internal/pki"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Protocol errors surfaced to callers.
var (
	ErrTimeout         = errors.New("core: timed out waiting for peer response")
	ErrProtocol        = errors.New("core: protocol violation")
	ErrPeerRejected    = errors.New("core: peer rejected the request")
	ErrIntegrity       = errors.New("core: downloaded data fails the agreed digest")
	ErrUnknownIdentity = errors.New("core: cannot resolve peer identity")
	// ErrCancelled wraps context.Canceled / context.DeadlineExceeded (and
	// transport deadline expiry derived from a context) so callers can
	// distinguish "the caller gave up" from the protocol-level ErrTimeout
	// that licenses escalation to Resolve.
	ErrCancelled = errors.New("core: operation cancelled")
)

// CheckContext reports ctx cancellation or deadline expiry mapped onto
// ErrCancelled, or nil when the context is still live. Exported so
// sibling protocol packages (traditional, bridging) surface the same
// sentinel for caller-initiated termination.
func CheckContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	}
	return nil
}

// cancelErr maps an error produced by context or deadline machinery
// onto ErrCancelled; other errors pass through unchanged. Socket
// deadline expiry surfaces differently per transport — os.Err-
// DeadlineExceeded wrapped by net.OpError on TCP, or only a net.Error
// whose Timeout() reports true — so both shapes are checked: a
// deadline planted by applyDeadline is the context speaking through
// the socket and must not be mistaken for the protocol-level
// ErrTimeout that licenses escalation.
func cancelErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrCancelled, err)
	}
	return err
}

// applyDeadline maps the context deadline onto the connection when the
// transport supports absolute deadlines (TCP), so a blocked socket
// read unblocks when the context expires. The returned restore func
// clears the deadline again.
func applyDeadline(ctx context.Context, conn transport.Conn) func() {
	dc, ok := conn.(transport.DeadlineConn)
	if !ok {
		return func() {}
	}
	d, ok := ctx.Deadline()
	if !ok {
		return func() {}
	}
	dc.SetDeadline(d)
	return func() { dc.SetDeadline(time.Time{}) }
}

// Directory resolves a party name to its current certificate — the
// §5.1 requirement that parties "authenticate the validity" of each
// other's public keys before use.
type Directory func(name string) (*pki.Certificate, error)

// Options is the configuration a constructor's functional options
// (WithIdentity, WithClock, …) fill in; callers pass those options
// rather than building the struct themselves.
type Options struct {
	// Identity is this party's name, key pair and certificate.
	Identity *pki.Identity
	// Directory resolves peer certificates.
	Directory Directory
	// Clock drives timestamps and timeouts; nil means the real clock.
	Clock clock.Clock
	// Counters receives protocol metrics; nil allocates a private set.
	Counters *metrics.Counters
	// MessageLifetime is the time-limit window stamped on outbound
	// messages (§5.5). Zero means DefaultMessageLifetime.
	MessageLifetime time.Duration
	// ResponseTimeout bounds waits for peer responses before Resolve
	// becomes available. Zero means DefaultResponseTimeout.
	ResponseTimeout time.Duration

	// store and ttpID are set by WithStore / WithTTPID; only NewProvider
	// consults them.
	store storage.Store
	ttpID string
	// journal is set by WithJournal: the crash-safe WAL every protocol
	// transition is appended to before the corresponding ack.
	journal *wal.WAL
	// cold is set by WithArchive: the append-only evidence archive that
	// Checkpoint compacts terminal sessions into.
	cold *archive.Store
	// deadline is set by WithDeadlinePolicy; only the provider enforces
	// it (step deadlines + expiry reaper).
	deadline DeadlinePolicy
	// caPub is set by WithCAPublicKey: the CA key handle that verifies
	// certificates from the directory.
	caPub cryptoutil.PublicKey
	// repl is set by WithReplicator: the quorum replication group every
	// journal append must clear before the transition is acked.
	repl Replicator
}

// Default protocol timing parameters.
const (
	DefaultMessageLifetime = 5 * time.Minute
	DefaultResponseTimeout = 30 * time.Second

	// defaultVerifyCacheSize bounds each party's private verification
	// cache (entries, not bytes; an entry is a 32-byte key).
	defaultVerifyCacheSize = 1024
)

// party is the plumbing shared by Client, Provider and the TTP server:
// identity, peer authentication, the nonce window, one record per
// transaction and instrumented send/receive.
type party struct {
	id    *pki.Identity
	caKey cryptoutil.PublicKey
	dir   Directory
	clk   clock.Clock
	ctr   *metrics.Counters

	lifetime time.Duration
	timeout  time.Duration

	guard    *session.Guard
	journal  *wal.WAL
	repl     Replicator
	vcache   *evidence.VerifyCache
	deadline DeadlinePolicy
	// recs holds one record per live transaction (record.go).
	recs [recShards]recShard
	// stateless marks the TTP: it writes no session state of its own,
	// so settled evidence compacts as completed.
	stateless bool

	// signer is the party's private key, counting the signatures it
	// computes. builder signs every outbound message with it and lives
	// here, not in a package-level cache, because its memo is one key's
	// signature and the identity is fixed for the party's life.
	signer  cryptoutil.Signer
	builder *evidence.Builder

	// cold is the append-only archive terminal sessions compact into;
	// its index is what knows a compacted transaction. ckptMu serialises
	// checkpoints against journal batches: every batch commit holds the
	// read side across its journal write AND its effects, so a snapshot
	// can never capture a state the journal boundary splits.
	cold   *archive.Store
	ckptMu sync.RWMutex

	// peers memoizes CA-verified peer keys: one CA signature check and
	// one key parse per distinct certificate, instead of per message.
	// Entries are invalidated by certificate change (serial or CA
	// signature differs) and by validity-window expiry at lookup time.
	peerMu sync.Mutex
	peers  map[string]*peerEntry

	pumpMu sync.Mutex
	pumps  map[transport.Conn]*pump
}

// peerEntry caches one directory certificate's verification outcome.
type peerEntry struct {
	serial    uint64
	sigSum    [32]byte
	notBefore time.Time
	notAfter  time.Time
	key       cryptoutil.PublicKey
}

func newParty(o Options) (*party, error) {
	if o.Identity == nil {
		return nil, fmt.Errorf("core: Options.Identity is required")
	}
	if o.caPub == nil {
		return nil, fmt.Errorf("core: a CA key is required (WithCAPublicKey)")
	}
	if o.Directory == nil {
		return nil, fmt.Errorf("core: Options.Directory is required")
	}
	signer := o.Identity.Key.Signer()
	if signer == nil {
		return nil, fmt.Errorf("core: identity %q has no private key", o.Identity.Name)
	}
	p := &party{
		id:       o.Identity,
		caKey:    o.caPub,
		dir:      o.Directory,
		clk:      o.Clock,
		ctr:      o.Counters,
		lifetime: o.MessageLifetime,
		timeout:  o.ResponseTimeout,
		guard:    session.NewGuard(0),
		journal:  o.journal,
		repl:     o.repl,
		deadline: o.deadline,
		cold:     o.cold,
		peers:    make(map[string]*peerEntry),
		pumps:    make(map[transport.Conn]*pump),
		// Re-verifications cluster on resolve/dispute traffic; a modest
		// bound keeps the win without letting the cache grow with load.
		vcache: evidence.NewVerifyCache(defaultVerifyCacheSize),
	}
	if p.clk == nil {
		p.clk = clock.Real()
	}
	if p.ctr == nil {
		p.ctr = &metrics.Counters{}
	}
	if p.lifetime == 0 {
		p.lifetime = DefaultMessageLifetime
	}
	if p.timeout == 0 {
		p.timeout = DefaultResponseTimeout
	}
	p.signer = countedSigner{signer, p.ctr}
	p.builder = evidence.NewBuilder(p.signer)
	return p, nil
}

// countedSigner counts the signatures the party's key actually
// computes: for a message two, or one when the data-hash signature
// comes from the builder's memo.
type countedSigner struct {
	cryptoutil.Signer
	ctr *metrics.Counters
}

func (s countedSigner) Sign(msg []byte) ([]byte, error) {
	sig, err := s.Signer.Sign(msg)
	if err == nil {
		s.ctr.Inc(metrics.SignOps, 1)
	}
	return sig, err
}

// Counters exposes the party's metrics.
func (p *party) Counters() *metrics.Counters { return p.ctr }

// ID returns the party name.
func (p *party) ID() string { return p.id.Name }

// peerKey resolves and authenticates a peer's public key via the
// directory and CA key. Verified certificates are memoized per name:
// as long as the directory serves the same certificate (serial + CA
// signature) and the clock sits inside its validity window, the cached
// handle is returned without re-running the CA signature check or
// re-parsing the key — the per-message authentication cost the paper's
// §5.1 step otherwise adds to every inbound/outbound exchange.
func (p *party) peerKey(name string) (cryptoutil.PublicKey, error) {
	cert, err := p.dir(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %v", ErrUnknownIdentity, name, err)
	}
	now := p.clk.Now()
	sigSum := sha256.Sum256(cert.Signature)
	p.peerMu.Lock()
	e, ok := p.peers[name]
	p.peerMu.Unlock()
	if ok && e.serial == cert.Serial && e.sigSum == sigSum &&
		!now.Before(e.notBefore) && !now.After(e.notAfter) {
		return e.key, nil
	}
	if err := pki.VerifyCertificateWith(p.caKey, cert, now, nil); err != nil {
		p.ctr.Inc(metrics.AuthFailures, 1)
		return nil, fmt.Errorf("%w: %q: %v", ErrUnknownIdentity, name, err)
	}
	p.ctr.Inc(metrics.VerifyOps, 1)
	key, err := cert.Key()
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %v", ErrUnknownIdentity, name, err)
	}
	p.peerMu.Lock()
	p.peers[name] = &peerEntry{
		serial: cert.Serial, sigSum: sigSum,
		notBefore: cert.NotBefore, notAfter: cert.NotAfter, key: key,
	}
	p.peerMu.Unlock()
	return key, nil
}

// newHeader assembles an outbound header with this party as sender.
func (p *party) newHeader(kind evidence.Kind, txn, recipient, ttp string, seq uint64) *evidence.Header {
	now := p.clk.Now()
	return &evidence.Header{
		Kind:        kind,
		TxnID:       txn,
		Seq:         seq,
		Nonce:       cryptoutil.MustNonce(),
		SenderID:    p.id.Name,
		RecipientID: recipient,
		TTPID:       ttp,
		Timestamp:   now,
		TimeLimit:   now.Add(p.lifetime),
	}
}

// buildMessage signs and seals evidence for the header and packages it
// with the payload.
func (p *party) buildMessage(h *evidence.Header, payload []byte, recipientKey cryptoutil.PublicKey) (*Message, *evidence.Evidence, error) {
	ev, sealed, err := p.builder.Build(recipientKey, h)
	if err != nil {
		return nil, nil, err
	}
	p.ctr.Inc(metrics.EncryptOps, 1)
	return &Message{HeaderBytes: h.Encode(), Payload: payload, Sealed: sealed}, ev, nil
}

// send transmits a message with instrumentation.
func (p *party) send(conn transport.Conn, m *Message) error {
	raw := m.Encode()
	p.ctr.Inc(metrics.MsgsSent, 1)
	p.ctr.Inc(metrics.BytesSent, int64(len(raw)))
	return conn.Send(raw)
}

// checkInbound runs the generic inbound validation sequence on a
// received message: decode header, header addressing, the pure
// freshness check, open + verify the sealed evidence against the
// sender's authenticated key, and only then admit the sequence number
// and nonce. Returns the header and opened evidence.
func (p *party) checkInbound(m *Message) (*evidence.Header, *evidence.Evidence, error) {
	h, err := m.Header()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if h.RecipientID != p.id.Name {
		return nil, nil, fmt.Errorf("%w: message for %q arrived at %q", ErrProtocol, h.RecipientID, p.id.Name)
	}
	// Sequence spaces are per (transaction, sender): Alice, Bob and the
	// TTP each number their own messages within a transaction.
	if err := p.fresh(h); err != nil {
		p.ctr.Inc(metrics.ReplaysSeen, 1)
		return nil, nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	senderKey, err := p.peerKey(h.SenderID)
	if err != nil {
		return nil, nil, err
	}
	ev, err := evidence.OpenCachedWith(p.signer, senderKey, m.Sealed, h, p.vcache)
	if err != nil {
		p.ctr.Inc(metrics.AuthFailures, 1)
		return nil, nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if err := p.admit(h); err != nil {
		p.ctr.Inc(metrics.ReplaysSeen, 1)
		return nil, nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	p.ctr.Inc(metrics.DecryptOps, 1)
	p.ctr.Inc(metrics.VerifyOps, 2)
	return h, ev, nil
}

// pumpFor returns the single pump owning conn's receive side. Repeated
// operations on one connection share the pump, so no message can be
// stolen by a stale reader goroutine. When the connection closes, the
// pump's reader goroutine evicts the cache entry, so long-lived
// parties (the TTP daemon dials one connection per resolve) do not
// accumulate dead pumps.
func (p *party) pumpFor(conn transport.Conn) *pump {
	p.pumpMu.Lock()
	defer p.pumpMu.Unlock()
	pu, ok := p.pumps[conn]
	if !ok {
		pu = newPump(conn, func() {
			p.pumpMu.Lock()
			delete(p.pumps, conn)
			p.pumpMu.Unlock()
		})
		p.pumps[conn] = pu
	}
	return pu
}

// pumpCount reports cached pumps (tests assert eviction).
func (p *party) pumpCount() int {
	p.pumpMu.Lock()
	defer p.pumpMu.Unlock()
	return len(p.pumps)
}

// pump adapts a blocking Conn to timeout-capable receives. One pump
// owns the connection's receive side.
type pump struct {
	ch   chan []byte
	errc chan error
}

// newPump starts the reader goroutine; onExit (may be nil) runs when
// the connection stops delivering.
func newPump(conn transport.Conn, onExit func()) *pump {
	pu := &pump{ch: make(chan []byte, 16), errc: make(chan error, 1)}
	go func() {
		for {
			msg, err := conn.Recv()
			if err != nil {
				pu.errc <- err
				if onExit != nil {
					onExit()
				}
				return
			}
			pu.ch <- msg
		}
	}()
	return pu
}

// recv waits up to d (on clk) for the next message, returning early
// with ErrCancelled when ctx terminates first.
func (pu *pump) recv(ctx context.Context, clk clock.Clock, d time.Duration) ([]byte, error) {
	select {
	case msg := <-pu.ch:
		return msg, nil
	case err := <-pu.errc:
		// Keep the error available for later recv calls on the same
		// (shared) pump.
		select {
		case pu.errc <- err:
		default:
		}
		// A transport deadline expiry planted by applyDeadline is the
		// context speaking through the socket.
		return nil, cancelErr(err)
	case <-clk.After(d):
		return nil, ErrTimeout
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", ErrCancelled, ctx.Err())
	}
}
