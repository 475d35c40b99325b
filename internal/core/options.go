package core

import (
	"time"

	"repro/internal/archive"
	"repro/internal/clock"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/pki"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Option configures a protocol party. Constructors take a variadic
// list of options and fold them into one Options value.
type Option func(*Options)

// WithIdentity sets the party's name, key pair and certificate
// (required).
func WithIdentity(id *pki.Identity) Option {
	return func(o *Options) { o.Identity = id }
}

// WithCAPublicKey sets the CA key handle used to verify directory
// certificates (required).
func WithCAPublicKey(k cryptoutil.PublicKey) Option {
	return func(o *Options) { o.caPub = k }
}

// WithDirectory sets the peer-certificate directory (required).
func WithDirectory(d Directory) Option {
	return func(o *Options) { o.Directory = d }
}

// WithClock overrides the clock driving timestamps and timeouts.
func WithClock(c clock.Clock) Option {
	return func(o *Options) { o.Clock = c }
}

// WithCounters directs protocol metrics into an existing counter set.
func WithCounters(c *metrics.Counters) Option {
	return func(o *Options) { o.Counters = c }
}

// WithMessageLifetime sets the §5.5 time-limit window stamped on
// outbound messages.
func WithMessageLifetime(d time.Duration) Option {
	return func(o *Options) { o.MessageLifetime = d }
}

// WithResponseTimeout bounds waits for peer responses before Resolve
// becomes available.
func WithResponseTimeout(d time.Duration) Option {
	return func(o *Options) { o.ResponseTimeout = d }
}

// WithStore sets the provider's blob store. Only NewProvider consults
// it; other constructors ignore it.
func WithStore(s storage.Store) Option {
	return func(o *Options) { o.store = s }
}

// WithTTPID names the TTP the provider escalates to in its own Resolve
// calls. Only NewProvider consults it.
func WithTTPID(id string) Option {
	return func(o *Options) { o.ttpID = id }
}

// WithJournal attaches a crash-safe write-ahead journal: every protocol
// transition (evidence archived, state changed, resolve opened/closed)
// is appended — and made durable per the journal's sync policy — before
// the corresponding message is acked. After a restart, the party's
// Recover method replays the journal to rebuild its archive and session
// state. Without a journal the party runs in-memory only, as before.
func WithJournal(w *wal.WAL) Option {
	return func(o *Options) { o.journal = w }
}

// WithArchive attaches a cold evidence archive: Checkpoint moves
// terminal sessions' evidence out of the in-memory store (and, via the
// journal snapshot, out of the replay path) into this append-only,
// CRC-protected tier. Dispute reads fall back to it transparently.
// Without an archive, Checkpoint still snapshots and compacts the
// journal but keeps all evidence hot.
func WithArchive(s *archive.Store) Option {
	return func(o *Options) { o.cold = s }
}

// WithReplicator attaches a quorum replication group to the party's
// journal: every appended record must reach the group's write quorum
// before the corresponding protocol step is acked, and quorum
// unavailability is folded into the provider's Health so admission
// refuses new sessions while the cluster is below quorum. Requires
// WithJournal; without a journal the replicator is never consulted.
func WithReplicator(r Replicator) Option {
	return func(o *Options) { o.repl = r }
}

// buildOptions folds a variadic option list into one Options value.
func buildOptions(opts []Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}
