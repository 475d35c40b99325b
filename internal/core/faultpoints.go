package core

import "repro/internal/faultpoint"

// Faultpoint names at the crash-sensitive instants of the protocol
// engines. Each marks a boundary the recovery design §4.3 reasoning
// cares about: before the journal write (crash loses the transition —
// the message was never acked, peer escalates), between journal and
// send (transition durable, peer unserved — recovery re-presents it),
// and after send before the reply lands (both sides hold evidence but
// neither knows it — resolve reconciles). The chaos suite arms each in
// turn with faultpoint.Kill and asserts the dispute invariant.
//
// A protocol step journals one batch, so the provider's upload has no
// instant with the NRO durable and the receipt not yet queued:
// after-journal-before-nrr fires, on the honest path, once the NRR is
// signed and before the step's batch is journaled, and after the batch
// on the silent provider's path, which queues no receipt.
var (
	fpClientUploadBeforeJournal     = faultpoint.Register("client.upload.before-journal")
	fpClientUploadBeforeSend        = faultpoint.Register("client.upload.after-journal-before-send")
	fpClientUploadBeforeAck         = faultpoint.Register("client.upload.after-send-before-ack")
	fpProviderUploadBeforeJournal   = faultpoint.Register("provider.upload.after-store-before-journal")
	fpProviderUploadBeforeNRR       = faultpoint.Register("provider.upload.after-journal-before-nrr")
	fpProviderUploadNRRBeforeSend   = faultpoint.Register("provider.upload.after-nrr-journal-before-send")
	fpProviderAbortBeforeAck        = faultpoint.Register("provider.abort.after-journal-before-ack")
	fpClientResolveBeforeCompletion = faultpoint.Register("client.resolve.after-send-before-outcome")

	// Resilience sites (PR 5): a handler wedged mid-message (arm with a
	// sleep for the slow-handler scenario, Kill for the crash sweep) and
	// the pool's TTP dial (arm with an error for the blackhole/breaker
	// scenario).
	fpServerHandleSlow = faultpoint.Register("server.handle.slow")
	fpPoolTTPBlackhole = faultpoint.Register("pool.ttp.dial-blackhole")

	// Sharding sites (PR 8): a frame routed to the wrong shard (arm
	// with an error to force the misroute; the engine's cross-shard
	// evidence sweep must keep the dispute invariant anyway) and a
	// shard's recovery goroutine failing partway through the parallel
	// fan-out (the other shards must still come back, and a retry must
	// converge because per-shard recovery is idempotent).
	fpShardRouteWrongShard = faultpoint.Register("shard.route.wrong-shard")
	fpShardRecoverPartial  = faultpoint.Register("shard.recover.partial")

	// Storage-dwell audit sites (PR 9): the provider silently dropping a
	// challenge (arm with an error for the lazy-provider scenario, Kill
	// for the crash sweep — either way the claimant is left holding an
	// unanswered journaled challenge), the provider answering with
	// proofs built over a stale copy of the object (arm with an error;
	// the response root cannot match the NRR commitment, so the verifier
	// must reject it), and a crash between journaling the response
	// evidence and sending it (the restarted provider holds proof it
	// answered; the claimant retries or convicts on the deadline).
	fpProviderAuditDropChallenge = faultpoint.Register("provider.audit.drop-challenge")
	fpProviderAuditStaleProof    = faultpoint.Register("provider.audit.stale-proof")
	fpProviderAuditCrashMid      = faultpoint.Register("provider.audit.crash-mid-audit")
)
