package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/faultpoint"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Storage-dwell audit wiring (DESIGN.md §14). The provider committed
// to a Merkle root over the object's chunks inside the signed NRR at
// upload time; this file runs the challenge-response sub-protocol
// against that commitment: the client (or TTP) sends a
// KindAuditChallenge whose header Note carries crypto/rand leaf
// indices + nonce, and the provider answers with a KindAuditResponse
// whose Note carries the challenged chunk bytes, inclusion proofs,
// and a signature over (txn, nonce, root, chunks, proofs). Both
// artifacts are
// journaled like any other evidence, so the arbitrator can settle a
// dwell-integrity dispute from the archives alone — no download.

// Audit metric names (per-party via the obs label convention).
const (
	metricAuditChallenges = "audit_challenges_total"
	metricAuditFailures   = "audit_failures_total"
	metricAuditLatency    = "audit_response_latency_ns"
)

// Package-level handles: parties carry no obs registry reference (the
// Server and SessionPool do), so the per-party audit counters follow
// the coreDegradedSkips pattern on the default registry.
var (
	auditChallengesClient   = obs.Default().Counter(obs.Labeled(metricAuditChallenges, "party", "client"))
	auditChallengesProvider = obs.Default().Counter(obs.Labeled(metricAuditChallenges, "party", "provider"))
	auditFailuresClient     = obs.Default().Counter(obs.Labeled(metricAuditFailures, "party", "client"))
	auditFailuresProvider   = obs.Default().Counter(obs.Labeled(metricAuditFailures, "party", "provider"))
	auditLatency            = obs.Default().Histogram(metricAuditLatency, obs.DurationBuckets)
)

// auditRootNote computes the upload-time commitment the NRR carries:
// audit.RootNote over the object's chunk tree. Empty on failure — an
// upload must not fail because the commitment could not be built; the
// NRR then simply carries no auditable root (and AuditObject reports
// audit.ErrNoCommitment).
func auditRootNote(data []byte) string {
	t, _, err := audit.ObjectTree(data)
	if err != nil {
		return ""
	}
	return audit.RootNote(t.Root())
}

// AuditReport is a completed, verified storage-dwell audit round held
// by the challenger.
type AuditReport struct {
	TxnID string
	// Challenge is what was asked (journaled as RoleOwn evidence).
	Challenge *audit.Challenge
	// Root is the NRR commitment the response proved against.
	Root cryptoutil.Digest
	// Response is the provider's verified answer (journaled as
	// RolePeer evidence).
	Response *audit.Response
	// Latency is the challenger-observed round-trip.
	Latency time.Duration
}

// AuditObject runs one challenge-response round for a completed upload
// (ROADMAP item 2: continuous storage-dwell auditing). It loads the
// NRR commitment from the archive (hot or cold), draws n crypto/rand
// leaf indices and a nonce, journals the challenge as its own
// evidence BEFORE sending — so a provider that never answers leaves
// the client holding conviction material — and journals the provider's
// authenticated response before verifying it against the committed
// root, so a failing answer is preserved as the provider's own signed
// admission.
//
// A verification failure (or no response) returns an error wrapping
// ErrIntegrity/ErrTimeout; the journaled evidence stays, and
// arbitrator.CaseFromBundles turns it into an audit-failure verdict —
// immediately for a journaled bad response, or once the challenge's
// deadline lapses for silence.
func (c *Client) AuditObject(ctx context.Context, conn transport.Conn, txnID string, n int) (*AuditReport, error) {
	if err := CheckContext(ctx); err != nil {
		return nil, err
	}
	defer applyDeadline(ctx, conn)()

	nrr, err := c.EvidenceByKind(txnID, evidence.RolePeer, evidence.KindNRR)
	if err != nil {
		return nil, fmt.Errorf("core: no NRR to audit %s against: %w", txnID, err)
	}
	root, chunkSize, err := audit.ParseRootNote(nrr.Header.Note)
	if err != nil {
		return nil, fmt.Errorf("core: NRR for %s carries no audit commitment: %w", txnID, err)
	}
	ch, err := audit.NewChallenge(txnID, audit.LeafCountFor(nrr.Header.ObjectLen, chunkSize), n)
	if err != nil {
		return nil, fmt.Errorf("core: building audit challenge: %w", err)
	}

	// Audits outlive the uploading process: a fresh challenger (the
	// nrclient CLI) starts its per-txn counter at zero, but the
	// provider's replay guard already holds the sequences this party
	// used during the upload. Re-derive the floor from the archived
	// headers so the challenge sequence strictly exceeds everything the
	// provider has seen — bumpSeqTo never moves the counter backwards,
	// so an in-process challenger that is already ahead is unaffected.
	h := c.newHeader(evidence.KindAuditChallenge, txnID, c.ProviderID, c.TTPID,
		c.bumpSeqTo(txnID, c.archivedMaxSeq(txnID)))
	h.ObjectKey = nrr.Header.ObjectKey
	h.Note = ch.Note()
	h.SetDigests(nil)
	providerKey, err := c.peerKey(c.ProviderID)
	if err != nil {
		return nil, err
	}
	msg, own, err := c.buildMessage(h, nil, providerKey)
	if err != nil {
		return nil, err
	}
	// Journal the challenge before it goes on the wire: if the provider
	// stays silent, the durable unanswered challenge IS the claim.
	if err := c.putEvidence(txnID, evidence.RoleOwn, own); err != nil {
		return nil, err
	}
	auditChallengesClient.Inc()
	start := time.Now()
	if err := c.send(conn, msg); err != nil {
		auditFailuresClient.Inc()
		return nil, fmt.Errorf("core: sending audit challenge: %w", err)
	}
	c.ctr.Inc(metrics.Rounds, 1)

	pu := c.pumpFor(conn)
	raw, err := pu.recv(ctx, c.clk, c.timeout)
	if err != nil {
		auditFailuresClient.Inc()
		return nil, err
	}
	m, err := DecodeMessage(raw)
	if err != nil {
		auditFailuresClient.Inc()
		return nil, wrapProto(err)
	}
	rh, rev, err := c.checkInbound(m)
	if err != nil {
		auditFailuresClient.Inc()
		return nil, err
	}
	c.ctr.Inc(metrics.MsgsRecv, 1)
	if rh.Kind == evidence.KindError {
		auditFailuresClient.Inc()
		return nil, peerErr(rh.Note)
	}
	if rh.Kind != evidence.KindAuditResponse || rh.TxnID != txnID || rh.SenderID != c.ProviderID {
		auditFailuresClient.Inc()
		return nil, fmt.Errorf("%w: expected audit response for %s, got %s for %s from %s",
			ErrProtocol, txnID, rh.Kind, rh.TxnID, rh.SenderID)
	}
	// Journal the provider's authenticated answer BEFORE judging it: a
	// response that fails the proof is itself conviction material — the
	// provider non-repudiably answered THIS nonce wrongly, which
	// convicts at arbitration immediately, with no need to wait out the
	// challenge deadline the way silence does.
	if err := c.putEvidence(txnID, evidence.RolePeer, rev); err != nil {
		return nil, err
	}
	resp, err := audit.ParseResponseNote(rh.Note)
	if err != nil {
		auditFailuresClient.Inc()
		return nil, fmt.Errorf("%w: audit response malformed: %v", ErrProtocol, err)
	}
	if err := resp.Verify(providerKey, ch, root); err != nil {
		c.ctr.Inc(metrics.AuthFailures, 1)
		auditFailuresClient.Inc()
		return nil, fmt.Errorf("%w: %v", ErrIntegrity, err)
	}
	c.ctr.Inc(metrics.VerifyOps, 1)
	latency := time.Since(start)
	auditLatency.Observe(int64(latency))
	return &AuditReport{TxnID: txnID, Challenge: ch, Root: root, Response: resp, Latency: latency}, nil
}

// handleAuditChallenge answers a storage-dwell challenge: journal the
// challenge, rebuild the chunk tree from the STORED copy of the
// object, prove the challenged leaves, and sign (txn, nonce, root,
// proofs). The response rides in the reply header's Note field and is
// journaled as the provider's own evidence before the send — a crash
// after that leaves the restarted provider able to prove it answered.
func (b *Provider) handleAuditChallenge(h *evidence.Header, ev *evidence.Evidence, payload []byte) (*Message, error) {
	auditChallengesProvider.Inc()
	if b.misbehavior().IgnoreAudit {
		// The lazy provider of the threat model: the challenge is
		// dropped on the floor and the challenger's journaled copy
		// becomes the conviction material.
		return nil, nil
	}
	if err := faultpoint.HitErr(fpProviderAuditDropChallenge); err != nil {
		return nil, nil
	}
	if !h.MatchesData(payload) {
		b.ctr.Inc(metrics.AuthFailures, 1)
		return b.errorReply(h, "audit challenge payload does not match signed digests")
	}
	ch, err := audit.ParseChallengeNote(h.Note)
	if err != nil {
		auditFailuresProvider.Inc()
		return b.errorReply(h, "malformed audit challenge: "+err.Error())
	}
	// Journal the inbound challenge first: even a challenge we cannot
	// answer is dispute material both sides should hold.
	if err := b.putEvidence(h.TxnID, evidence.RolePeer, ev); err != nil {
		return nil, err
	}

	b.txnMu.Lock()
	objKey := b.txnObject[h.TxnID]
	b.txnMu.Unlock()
	if objKey == "" {
		objKey = h.ObjectKey
	}
	if objKey == "" {
		auditFailuresProvider.Inc()
		return b.errorReply(h, "audit: unknown transaction "+h.TxnID)
	}
	obj, err := b.store.Get(objKey)
	if err != nil {
		auditFailuresProvider.Inc()
		return b.errorReply(h, "audit: object unavailable: "+err.Error())
	}
	data := obj.Data
	if b.misbehavior().CorruptAuditProof {
		data = corruptCopy(data)
	}
	if err := faultpoint.HitErr(fpProviderAuditStaleProof); err != nil {
		// Chaos: the provider proves against a stale copy; the response
		// root cannot match the commitment and the verifier rejects it.
		data = corruptCopy(data)
	}
	tree, chunks, err := audit.ObjectTree(data)
	if err != nil {
		auditFailuresProvider.Inc()
		return b.errorReply(h, "audit: cannot rebuild chunk tree: "+err.Error())
	}
	resp, err := audit.BuildResponse(b.signer, b.id.Name, ch, tree, chunks, b.clk.Now())
	if err != nil {
		auditFailuresProvider.Inc()
		return b.errorReply(h, "audit: cannot prove challenge: "+err.Error())
	}

	senderKey, err := b.peerKey(h.SenderID)
	if err != nil {
		return nil, err
	}
	rh := b.newHeader(evidence.KindAuditResponse, h.TxnID, h.SenderID, h.TTPID, b.bumpSeqTo(h.TxnID, h.Seq))
	rh.ObjectKey = objKey
	rh.Note = resp.Note()
	rh.SetDigests(nil)
	msg, own, err := b.buildMessage(rh, nil, senderKey)
	if err != nil {
		return nil, err
	}
	if err := b.putEvidence(h.TxnID, evidence.RoleOwn, own); err != nil {
		return nil, err
	}
	faultpoint.Hit(fpProviderAuditCrashMid)
	b.ctr.Inc(metrics.Rounds, 1)
	b.auditAppend("audit", h.TxnID, fmt.Sprintf("answered %d-leaf challenge on %q", len(ch.Indices), objKey))
	return msg, nil
}

// corruptCopy returns a mutated copy of data (never the original):
// the stale-proof adversary's view of the object.
func corruptCopy(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 {
		return []byte{0xFF}
	}
	out[0] ^= 0xFF
	return out
}

// VerifyStorage is the provider's proactive self-audit (the nrserver
// -audit-interval sweep): rebuild the chunk tree from the stored
// object and compare it to the commitment inside the provider's own
// archived NRR. A mismatch means bit-rot or a lost blob — the
// provider learns it is about to fail external audits BEFORE a
// challenger convicts it.
func (b *Provider) VerifyStorage(txnID string) error {
	own, err := b.EvidenceByKind(txnID, evidence.RoleOwn, evidence.KindNRR)
	if err != nil {
		return fmt.Errorf("core: no NRR for %s: %w", txnID, err)
	}
	root, _, err := audit.ParseRootNote(own.Header.Note)
	if err != nil {
		return fmt.Errorf("core: NRR for %s carries no audit commitment: %w", txnID, err)
	}
	b.txnMu.Lock()
	objKey := b.txnObject[txnID]
	b.txnMu.Unlock()
	if objKey == "" {
		objKey = own.Header.ObjectKey
	}
	obj, err := b.store.Get(objKey)
	if err != nil {
		auditFailuresProvider.Inc()
		return fmt.Errorf("%w: audited object %q unavailable: %v", ErrIntegrity, objKey, err)
	}
	tree, _, err := audit.ObjectTree(obj.Data)
	if err != nil {
		return err
	}
	if !tree.Root().Equal(root) {
		auditFailuresProvider.Inc()
		return fmt.Errorf("%w: stored object %q diverged from NRR commitment", ErrIntegrity, objKey)
	}
	return nil
}

// AuditableTxns lists the transactions whose object binding this
// provider still holds — the candidate set for a self-audit sweep.
func (b *Provider) AuditableTxns() []string {
	b.txnMu.Lock()
	defer b.txnMu.Unlock()
	out := make([]string, 0, len(b.txnObject))
	for txn := range b.txnObject {
		out = append(out, txn)
	}
	return out
}

// VerifyStorage routes the self-audit to the shard owning txnID, then
// sweeps the rest — mirroring EvidenceByKind, because a misrouted
// frame (shard.route.wrong-shard) can leave the NRR on a non-owner
// shard.
func (e *ShardedEngine) VerifyStorage(txnID string) error {
	owner := e.ring.Shard(txnID)
	err := e.shards[owner].VerifyStorage(txnID)
	if err == nil {
		return nil
	}
	for i, s := range e.shards {
		if i == owner {
			continue
		}
		if serr := s.VerifyStorage(txnID); serr == nil {
			return nil
		}
	}
	return err
}

// AuditableTxns concatenates every shard's candidate set.
func (e *ShardedEngine) AuditableTxns() []string {
	var out []string
	for _, s := range e.shards {
		out = append(out, s.AuditableTxns()...)
	}
	return out
}
