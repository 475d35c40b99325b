// Package ttp implements the Trusted Third Party of the TPNR protocol
// (paper §4.3, Fig. 6c). The TTP is off-line in the Normal and Abort
// modes and only participates in Resolve: a party that did not receive
// its counterparty's evidence before the time limit sends the TTP the
// transaction ID, its own evidence, and a report of anomalies; the TTP
// verifies genuineness and consistency, forwards a timestamped Resolve
// query to the peer, and either relays the peer's evidence back or —
// when the peer stays silent past the deadline — issues a signed
// statement that "this session is failed and [the peer] did not
// respond".
//
// The TTP never stores or forwards bulk data: "Normally the size of
// the data set is very large, which is not feasible to be stored
// and/or forwarded by the TTP" (§4.3). Only evidence moves through it.
package ttp

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/auditlog"
	"repro/internal/core"
	"repro/internal/evidence"
	"repro/internal/faultpoint"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// Faultpoints at the TTP's crash-sensitive instants; the chaos suite
// kills the daemon at each and asserts the claimant still converges.
var (
	fpResolveAfterOpen  = faultpoint.Register("ttp.resolve.after-open-before-query")
	fpResolveAfterClose = faultpoint.Register("ttp.resolve.after-close-before-reply")
	// fpQueryPeerBlackhole simulates an unreachable counterparty (armed
	// with an error) or crashes the TTP mid-query (armed with Kill): the
	// resolve must still conclude with a signed statement.
	fpQueryPeerBlackhole = faultpoint.Register("ttp.resolve.query-peer-blackhole")
)

// Dialer connects the TTP to a named party for the in-line query,
// honoring the context while connecting.
type Dialer func(ctx context.Context, partyID string) (transport.Conn, error)

// Server is the TTP daemon. It satisfies core.Handler, so a
// core.Server can front it for concurrent resolve traffic.
type Server struct {
	*partyAlias
	dial Dialer

	// audit, when set, receives a hash-chained record of every resolve —
	// the material the TTP shows when its own conduct is questioned.
	auditMu sync.Mutex
	audit   *auditlog.Log

	// targets remembers sessions whose relayed NRR carried a
	// storage-dwell commitment; the ttpd -audit-interval sweep
	// (AuditStored) challenges them as a public auditor.
	targetsMu sync.Mutex
	targets   map[string]auditTarget
}

// partyAlias re-exports the shared core plumbing under this package.
// The TTP is a protocol party like the others: it has an identity, a
// replay guard and an evidence archive (it must retain what passed
// through it for later disputes).
type partyAlias = core.TTPParty

// New constructs a TTP server from functional options. dial is used to
// reach the counterparty of a resolve request.
func New(dial Dialer, opts ...core.Option) (*Server, error) {
	p, err := core.NewTTPParty(opts...)
	if err != nil {
		return nil, err
	}
	return &Server{partyAlias: p, dial: dial, targets: make(map[string]auditTarget)}, nil
}

// SetAuditLog attaches a tamper-evident event log; every subsequent
// resolve event is appended to it.
func (s *Server) SetAuditLog(l *auditlog.Log) {
	s.auditMu.Lock()
	s.audit = l
	s.auditMu.Unlock()
}

// auditAppend records an event if an audit log is attached.
func (s *Server) auditAppend(kind, txn, detail string) {
	s.auditMu.Lock()
	l := s.audit
	s.auditMu.Unlock()
	if l != nil {
		l.Append(kind, txn, detail)
	}
}

// Handle processes one encoded resolve request and returns the encoded
// response for the requester (nil for unverifiable garbage, which gets
// no reply) plus the handling error. The in-line peer query is bounded
// by the party's response timeout rather than a caller context — the
// TTP answers the claimant in bounded time regardless of who embeds
// it.
func (s *Server) Handle(raw []byte) ([]byte, error) {
	s.Counters().Inc(metrics.MsgsRecv, 1)
	m, err := core.DecodeMessage(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrProtocol, err)
	}
	resp, err := s.handleResolve(m)
	if resp == nil {
		return nil, err
	}
	enc := resp.Encode()
	s.Counters().Inc(metrics.MsgsSent, 1)
	s.Counters().Inc(metrics.BytesSent, int64(len(enc)))
	return enc, err
}

// Compile-time check: the TTP daemon plugs into the concurrent
// core.Server runtime.
var _ core.Handler = (*Server)(nil)

func (s *Server) handleResolve(m *core.Message) (*core.Message, error) {
	h, ev, err := s.CheckInbound(m)
	if err != nil {
		return nil, err
	}
	if h.Kind != evidence.KindResolveRequest {
		return s.statement(h, "unsupported request kind "+h.Kind.String(), nil, nil)
	}
	// Verify the genuineness of the claim: the embedded original
	// evidence must verify under the claimant's key and belong to the
	// claimed transaction.
	if len(m.Payload) == 0 {
		return s.statement(h, "resolve request carries no evidence", nil, nil)
	}
	claimed, err := evidence.Decode(m.Payload)
	if err != nil {
		return s.statement(h, "resolve evidence malformed", nil, nil)
	}
	claimantKey, err := s.PeerPublicKey(h.SenderID)
	if err != nil {
		return nil, err
	}
	if claimed.Header.SenderID != h.SenderID || claimed.Header.TxnID != h.TxnID {
		return s.statement(h, "resolve evidence does not match claim", nil, nil)
	}
	// Claimants resubmit the same original evidence on every resolve
	// retry; the cache turns the repeat RSA verifies into hash lookups.
	if err := claimed.VerifyCachedWith(claimantKey, s.VerifyCache()); err != nil {
		s.Counters().Inc(metrics.AuthFailures, 1)
		return s.statement(h, "resolve evidence does not verify", nil, nil)
	}
	// Journal the accepted claim and the opened resolve, in one flush,
	// before the peer query: if the TTP dies mid-resolve, the restarted
	// daemon knows the claimant is owed a statement and holds the
	// evidence to answer a retry.
	if err := s.OpenResolve(h.TxnID, ev, "claim by "+h.SenderID); err != nil {
		return nil, err // no reply; the claimant retries
	}
	s.Counters().Inc(metrics.Resolves, 1)
	s.auditAppend("resolve-open", h.TxnID, "claim by "+h.SenderID)
	faultpoint.Hit(fpResolveAfterOpen)

	// Identify the counterparty from the claimant's evidence.
	peerID := claimed.Header.RecipientID
	answer, relayed, note := s.queryPeer(h, peerID, m.Payload)
	if answer == nil {
		// Peer unresponsive: issue the signed failure statement.
		return s.statement(h, note, nil, nil)
	}
	return s.statement(h, note, answer, relayed)
}

// queryPeer forwards a timestamped resolve query to the counterparty
// and awaits its answer. Returns the peer's authenticated answer (nil
// on timeout or failure), the evidence bytes it relays, and the
// outcome note.
func (s *Server) queryPeer(h *evidence.Header, peerID string, claimPayload []byte) (*evidence.Evidence, []byte, string) {
	// The dial and the peer wait are bounded by the response timeout,
	// not a caller context: §4.3 requires the TTP to answer the
	// claimant in bounded time.
	ctx, cancel := context.WithTimeout(context.Background(), s.ResponseTimeout())
	defer cancel()
	if err := faultpoint.HitErr(fpQueryPeerBlackhole); err != nil {
		return nil, nil, "peer-unreachable"
	}
	conn, err := s.dial(ctx, peerID)
	if err != nil {
		return nil, nil, "peer-unreachable"
	}
	defer conn.Close()

	peerKey, err := s.PeerPublicKey(peerID)
	if err != nil {
		return nil, nil, "peer-unknown"
	}
	fh := s.NewHeader(evidence.KindResolveRequest, h.TxnID, peerID, s.ID(), s.NextSeq(h.TxnID))
	fh.Note = "resolve query on behalf of " + h.SenderID
	fh.SetDigests(nil)
	fmsg, _, err := s.BuildMessageFor(fh, claimPayload, peerKey)
	if err != nil {
		return nil, nil, "internal-error"
	}
	if err := conn.Send(fmsg.Encode()); err != nil {
		return nil, nil, "peer-unreachable"
	}
	s.Counters().Inc(metrics.TTPMsgs, 1)

	raw, err := s.RecvTimeout(ctx, conn)
	if err != nil {
		s.Counters().Inc(metrics.Disputes, 1)
		return nil, nil, "peer-unresponsive"
	}
	rm, err := core.DecodeMessage(raw)
	if err != nil {
		return nil, nil, "peer-malformed-reply"
	}
	rh, rev, err := s.CheckInbound(rm)
	if err != nil || rh.Kind != evidence.KindResolveResponse {
		return nil, nil, "peer-invalid-reply"
	}
	// A relayed NRR carrying a storage-dwell commitment makes this
	// session auditable by the TTP from now on (DESIGN.md §14).
	s.recordAuditable(h.TxnID, rm.Payload)
	// Relay the peer's embedded evidence (its NRR) onward; the peer's
	// action note travels with the statement, and its answer is
	// journaled with the statement.
	return rev, rm.Payload, rh.Note
}

// statement builds the TTP's signed response to the requester,
// optionally relaying peer evidence in the payload; answer, when not
// nil, is the peer's authenticated answer the relay came from.
func (s *Server) statement(h *evidence.Header, note string, answer *evidence.Evidence, relayed []byte) (*core.Message, error) {
	requesterKey, err := s.PeerPublicKey(h.SenderID)
	if err != nil {
		return nil, err
	}
	rh := s.NewHeader(evidence.KindResolveResponse, h.TxnID, h.SenderID, s.ID(), s.BumpSeqTo(h.TxnID, h.Seq))
	rh.Note = note
	rh.SetDigests(nil)
	msg, own, err := s.BuildMessageFor(rh, relayed, requesterKey)
	if err != nil {
		return nil, err
	}
	// Journal the peer's answer, the statement and the close in one
	// flush before replying: once the claimant holds the statement the
	// TTP must be able to reproduce it.
	if err := s.CloseResolve(h.TxnID, answer, own, note); err != nil {
		return nil, err
	}
	s.auditAppend("resolve-close", h.TxnID, note)
	faultpoint.Hit(fpResolveAfterClose)
	return msg, nil
}
