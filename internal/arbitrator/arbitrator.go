// Package arbitrator implements the fourth TPNR role (Fig. 6a, 6d):
// the off-line judge that settles repudiation disputes over archived
// evidence. "If disputation happens, the Arbitrator can ask Alice and
// Bob to provide evidence for judging" (§4.4).
//
// The arbitrator answers the two §2.4 questions:
//
//   - Integrity/repudiation: when downloaded data differs from what was
//     uploaded, WHO is at fault? The agreed digest — signed by Alice in
//     the NRO and by Bob in the NRR — pins the answer: if the provider
//     cannot produce data matching the digest both parties signed, the
//     provider is at fault.
//   - Blackmail: when a user claims loss but the provider produces data
//     matching the agreed digest, the claim is exposed as false.
package arbitrator

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/audit"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/merkle"
	"repro/internal/pki"
)

// Verdict is the arbitrator's ruling.
type Verdict int

// Rulings, from the respondent's (provider's) perspective.
const (
	// VerdictProviderFault: the provider signed a receipt for data it
	// can no longer produce — integrity loss attributable to the
	// provider.
	VerdictProviderFault Verdict = iota + 1
	// VerdictClaimFalse: the produced data matches the agreed digest;
	// the claimant's loss/tampering claim is false (the blackmail case).
	VerdictClaimFalse
	// VerdictClaimUnsupported: the claimant's submitted evidence does
	// not verify or does not concern the claimed transaction.
	VerdictClaimUnsupported
	// VerdictAborted: the transaction was provably aborted; no storage
	// obligation exists.
	VerdictAborted
	// VerdictNoAgreement: no mutually signed digest exists (e.g. the
	// NRR was never issued and no TTP statement covers the gap), so no
	// party can be held to a storage obligation.
	VerdictNoAgreement
	// VerdictProviderUnresponsive: a TTP statement shows the provider
	// received the data but refused to answer the resolve — the
	// provider bears the burden.
	VerdictProviderUnresponsive
	// VerdictAuditFailed: the respondent committed to a Merkle root
	// inside its signed NRR, a valid storage-dwell challenge exists,
	// and no valid response was produced inside the deadline — the
	// respondent cannot prove it still holds the data (DESIGN.md §14).
	// Conviction requires no download: the journaled challenge/response
	// evidence alone settles it.
	VerdictAuditFailed
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictProviderFault:
		return "provider-at-fault"
	case VerdictClaimFalse:
		return "claim-false"
	case VerdictClaimUnsupported:
		return "claim-unsupported"
	case VerdictAborted:
		return "transaction-aborted"
	case VerdictNoAgreement:
		return "no-agreement"
	case VerdictProviderUnresponsive:
		return "provider-unresponsive"
	case VerdictAuditFailed:
		return "audit-failed"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Case is a dispute submission. Either party may be the claimant; the
// field names follow the common case (client claims against provider).
type Case struct {
	TxnID        string
	ObjectKey    string
	ClaimantID   string
	RespondentID string

	// ClaimantNRO is the claimant's own origin evidence (signed by the
	// claimant).
	ClaimantNRO *evidence.Evidence
	// ClaimantNRR is the receipt the claimant received (signed by the
	// respondent).
	ClaimantNRR *evidence.Evidence
	// RespondentNRR is the respondent's own copy of the receipt.
	RespondentNRR *evidence.Evidence
	// AbortReceipt, if present, is a respondent-signed abort acceptance.
	AbortReceipt *evidence.Evidence
	// TTPStatement, if present, is a TTP-signed resolve outcome.
	TTPStatement *evidence.Evidence

	// AggReceipt and AggProof, if present, substitute for a per-upload
	// NRR: the respondent's aggregated session receipt plus the Merkle
	// inclusion proof placing the claimant's NRO under its signed root.
	// A valid pair is a respondent acknowledgment of the NRO — digests
	// included — equivalent to an individual receipt.
	AggReceipt *evidence.AggregateReceipt
	AggProof   *merkle.Proof

	// AuditChallenge, if present, is a challenger-signed storage-dwell
	// challenge (KindAuditChallenge; the challenge parameters ride in
	// its header Note — see internal/audit). AuditResponse, if present,
	// is the respondent's signed answer (KindAuditResponse). Together
	// with the root commitment inside the NRR they let the arbitrator
	// judge dwell integrity from archived evidence alone.
	AuditChallenge *evidence.Evidence
	AuditResponse  *evidence.Evidence
	// AuditOnly marks a dispute that contests ONLY dwell integrity: no
	// production of the object was demanded, so nil ProducedData means
	// "nobody asked", not "the respondent could not produce". Only an
	// audit-only case can end at VerdictClaimFalse on the strength of a
	// valid audit response alone; otherwise a verified response merely
	// clears the dwell period and the produced-data judgment still runs.
	AuditOnly bool

	// ProducedData is the data the respondent produces at arbitration
	// (what the store currently holds); nil when the respondent cannot
	// or will not produce anything.
	ProducedData []byte
}

// Decision is the arbitrator's output: the verdict plus a findings
// transcript explaining each verification step (the Fig. 6d
// "arbitrate" interaction rendered as text).
type Decision struct {
	Verdict  Verdict
	Findings []string
	// AgreedMD5 is the mutually signed digest, when one was established.
	AgreedMD5 cryptoutil.Digest
}

// Arbitrator validates certificates and signatures against the same CA
// as the protocol parties. It holds no protocol state: everything it
// needs arrives in the Case. (The verification cache is a memo of
// successful checks, not state a Case outcome depends on — disputed
// evidence is resubmitted across hearings, and re-ruling on an
// amended Case re-verifies only what changed.)
type Arbitrator struct {
	caKey  cryptoutil.PublicKey
	dir    func(name string) (*pki.Certificate, error)
	now    func() time.Time
	vcache *evidence.VerifyCache
}

// NewWithKey constructs an arbitrator trusting the given CA key handle
// (any scheme).
func NewWithKey(caKey cryptoutil.PublicKey, dir func(string) (*pki.Certificate, error), now func() time.Time) *Arbitrator {
	if now == nil {
		now = time.Now
	}
	return &Arbitrator{caKey: caKey, dir: dir, now: now, vcache: evidence.NewVerifyCache(256)}
}

// partyKey resolves and validates a party's public key. The
// certificate is validated AT THE EVIDENCE'S TIMESTAMP, not at dispute
// time: disputes legitimately arrive long after a session — possibly
// after the signer's certificate expired — and what matters is that
// the certificate was valid when the evidence was produced.
func (a *Arbitrator) partyKey(name string, at time.Time) (cryptoutil.PublicKey, error) {
	cert, err := a.dir(name)
	if err != nil {
		return nil, err
	}
	if at.IsZero() {
		at = a.now()
	}
	if err := pki.VerifyCertificateWith(a.caKey, cert, at, nil); err != nil {
		return nil, err
	}
	return cert.Key()
}

// verify checks one evidence item: signatures under the expected
// signer (whose certificate must have been valid at the evidence's
// timestamp), and transaction binding.
func (a *Arbitrator) verify(ev *evidence.Evidence, signer, txn string, findings *[]string, label string) bool {
	if ev == nil {
		*findings = append(*findings, fmt.Sprintf("%s: not submitted", label))
		return false
	}
	key, err := a.partyKey(signer, ev.Header.Timestamp)
	if err != nil {
		*findings = append(*findings, fmt.Sprintf("%s: signer %q has no valid certificate: %v", label, signer, err))
		return false
	}
	if ev.Header.SenderID != signer {
		*findings = append(*findings, fmt.Sprintf("%s: evidence names sender %q, expected %q", label, ev.Header.SenderID, signer))
		return false
	}
	if ev.Header.TxnID != txn {
		*findings = append(*findings, fmt.Sprintf("%s: evidence concerns transaction %q, claim is about %q", label, ev.Header.TxnID, txn))
		return false
	}
	if err := ev.VerifyCachedWith(key, a.vcache); err != nil {
		*findings = append(*findings, fmt.Sprintf("%s: signature verification FAILED: %v", label, err))
		return false
	}
	*findings = append(*findings, fmt.Sprintf("%s: signatures valid (signer %s, txn %s)", label, signer, txn))
	return true
}

// verifyAggregate checks the aggregated-receipt substitute for an
// individual NRR: the receipt must be respondent-signed (certificate
// valid at the receipt's timestamp) and the inclusion proof must bind
// the claimant's NRO into the signed Merkle root at the leaf naming
// the disputed transaction.
func (a *Arbitrator) verifyAggregate(c *Case, nro *evidence.Evidence, f *[]string) bool {
	if c.AggReceipt == nil {
		return false
	}
	r := c.AggReceipt
	if r.SignerID != c.RespondentID {
		*f = append(*f, fmt.Sprintf("aggregate receipt signed by %q, expected respondent %q", r.SignerID, c.RespondentID))
		return false
	}
	key, err := a.partyKey(c.RespondentID, r.Timestamp)
	if err != nil {
		*f = append(*f, fmt.Sprintf("aggregate receipt: signer %q has no valid certificate: %v", c.RespondentID, err))
		return false
	}
	if err := r.VerifySig(key); err != nil {
		*f = append(*f, fmt.Sprintf("aggregate receipt: signature verification FAILED: %v", err))
		return false
	}
	if c.AggProof == nil {
		*f = append(*f, "aggregate receipt submitted without an inclusion proof")
		return false
	}
	if err := r.VerifyLeaf(nro, c.AggProof); err != nil {
		*f = append(*f, fmt.Sprintf("aggregate receipt: inclusion proof FAILED: %v", err))
		return false
	}
	*f = append(*f, fmt.Sprintf("aggregate receipt valid: session %s leaf %d covers txn %s", r.SessionID, c.AggProof.Index, c.TxnID))
	return true
}

// Decide rules on a dispute.
func (a *Arbitrator) Decide(c *Case) *Decision {
	d := &Decision{}
	f := &d.Findings

	// 1. The claimant's own commitment must stand: without a valid NRO
	// there is no claim.
	if !a.verify(c.ClaimantNRO, c.ClaimantID, c.TxnID, f, "claimant NRO") {
		d.Verdict = VerdictClaimUnsupported
		return d
	}
	nro := c.ClaimantNRO

	// 2. A provably aborted transaction carries no storage obligation.
	if c.AbortReceipt != nil {
		if a.verify(c.AbortReceipt, c.RespondentID, c.TxnID, f, "abort receipt") &&
			c.AbortReceipt.Header.Kind == evidence.KindAbortAccept {
			*f = append(*f, "transaction was aborted by mutual evidence; no storage obligation")
			d.Verdict = VerdictAborted
			return d
		}
	}

	// 3. Establish the agreed digest from a respondent-signed receipt:
	// an individual NRR, or an aggregated session receipt whose signed
	// Merkle root provably includes the claimant's NRO.
	nrr := c.ClaimantNRR
	label := "claimant-submitted NRR"
	if nrr == nil {
		nrr = c.RespondentNRR
		label = "respondent-submitted NRR"
	}
	agreed := false
	// committedNRR is the verified receipt whose Note may carry the
	// storage-dwell root commitment (nil when agreement came via an
	// aggregated receipt, which acknowledges the NRO, not a root).
	var committedNRR *evidence.Evidence
	if nrr != nil && a.verify(nrr, c.RespondentID, c.TxnID, f, label) {
		if nrr.Header.Kind != evidence.KindNRR {
			*f = append(*f, fmt.Sprintf("receipt evidence has kind %s, want NRR", nrr.Header.Kind))
			d.Verdict = VerdictNoAgreement
			return d
		}
		// 4. NRO and NRR must commit to the same digests — otherwise
		// there was never an agreement.
		if !nro.Header.DataMD5.Equal(nrr.Header.DataMD5) || !nro.Header.DataSHA256.Equal(nrr.Header.DataSHA256) {
			*f = append(*f, "NRO and NRR digests disagree: the parties never agreed on a value")
			d.Verdict = VerdictNoAgreement
			return d
		}
		agreed = true
		committedNRR = nrr
	} else if a.verifyAggregate(c, nro, f) {
		// The aggregate receipt acknowledges the NRO evidence itself —
		// digests included — so the NRO's digests ARE the agreed value.
		agreed = true
	}
	if !agreed {
		// No receipt: check for a TTP statement covering the gap.
		if c.TTPStatement != nil && a.verify(c.TTPStatement, c.TTPStatement.Header.SenderID, c.TxnID, f, "TTP statement") {
			if c.TTPStatement.Header.Note == "peer-unresponsive" {
				*f = append(*f, "TTP attests the respondent refused to answer a resolve query")
				d.Verdict = VerdictProviderUnresponsive
				return d
			}
			*f = append(*f, fmt.Sprintf("TTP statement notes %q; no receipt obligation established", c.TTPStatement.Header.Note))
		}
		*f = append(*f, "no mutually signed digest exists for this transaction")
		d.Verdict = VerdictNoAgreement
		return d
	}
	d.AgreedMD5 = nro.Header.DataMD5.Clone()
	*f = append(*f, fmt.Sprintf("agreed digest established: %s (and sha256:%s)", d.AgreedMD5, nro.Header.DataSHA256.Hex()))

	// 4a. Storage-dwell audit ruling (DESIGN.md §14). The receipt's
	// root commitment binds the respondent to answer random leaf
	// challenges over the dwell time; a valid challenge with no valid
	// response inside the deadline convicts without any download.
	if c.AuditChallenge != nil {
		if v, decided := a.decideAudit(c, committedNRR, f); decided {
			d.Verdict = v
			return d
		}
	}

	// 5. Judge the produced data against the agreed digest.
	if c.ProducedData == nil {
		*f = append(*f, "respondent produced no data for the agreed digest")
		d.Verdict = VerdictProviderFault
		return d
	}
	ds := cryptoutil.SumParallel(c.ProducedData, cryptoutil.MD5, cryptoutil.SHA256)
	md5Match := ds[0].Equal(nro.Header.DataMD5)
	shaMatch := ds[1].Equal(nro.Header.DataSHA256)
	switch {
	case md5Match && shaMatch:
		*f = append(*f, "produced data matches the agreed digest: storage obligation met")
		d.Verdict = VerdictClaimFalse
	default:
		*f = append(*f, fmt.Sprintf("produced data does NOT match the agreed digest (md5 match=%v, sha256 match=%v)", md5Match, shaMatch))
		d.Verdict = VerdictProviderFault
	}
	return d
}

// decideAudit rules on a storage-dwell audit claim. It returns
// (verdict, true) when the audit evidence settles the case by itself,
// or (0, false) when the dispute must continue to the produced-data
// judgment (the audit claim is unusable, or the response is valid and
// only exonerates the dwell period).
//
// The burden allocation mirrors §4.4: the challenge must be
// challenger-signed and well-formed before it can put the respondent
// on the hook; once it is, the respondent convicts itself by silence,
// lateness, or an answer that fails to open the committed root.
func (a *Arbitrator) decideAudit(c *Case, nrr *evidence.Evidence, f *[]string) (Verdict, bool) {
	// The challenge may come from the claimant or from the TTP acting
	// as public auditor; either way it must be signed by whoever it
	// names as sender and must target the respondent.
	challenger := c.AuditChallenge.Header.SenderID
	if challenger == c.RespondentID {
		*f = append(*f, "audit challenge names the respondent as challenger; audit claim ignored")
		return 0, false
	}
	if !a.verify(c.AuditChallenge, challenger, c.TxnID, f, "audit challenge") {
		return 0, false
	}
	if c.AuditChallenge.Header.Kind != evidence.KindAuditChallenge ||
		c.AuditChallenge.Header.RecipientID != c.RespondentID {
		*f = append(*f, "audit challenge evidence is not a challenge addressed to the respondent; ignored")
		return 0, false
	}
	ch, err := audit.ParseChallengeNote(c.AuditChallenge.Header.Note)
	if err != nil {
		*f = append(*f, fmt.Sprintf("audit challenge note unparseable: %v; audit claim ignored", err))
		return 0, false
	}
	if nrr == nil {
		*f = append(*f, "agreement rests on an aggregated receipt with no per-object root commitment; dwell integrity cannot be judged")
		return 0, false
	}
	root, _, err := audit.ParseRootNote(nrr.Header.Note)
	if err != nil {
		*f = append(*f, "the NRR carries no storage-dwell commitment; dwell integrity cannot be judged")
		return 0, false
	}
	*f = append(*f, fmt.Sprintf("respondent committed to root %s in its signed NRR; challenge covers %d leaves", root, len(ch.Indices)))

	// Silence convicts only past a journaled deadline: the claimant
	// controls when it submits the dispute, so without a deadline — or
	// before it lapses — an unanswered challenge proves nothing (the
	// claimant may have journaled a challenge it never sent, or the
	// answer may still be in flight). A submitted "response" that is
	// unauthenticated, the wrong kind, or echoes a different nonce is
	// not an answer to THIS challenge and falls back to the same rule:
	// otherwise a claimant holding a stale round's response could
	// bypass the deadline entirely.
	silence := func(why string) (Verdict, bool) {
		*f = append(*f, why)
		deadline := c.AuditChallenge.Header.TimeLimit
		if deadline.IsZero() {
			*f = append(*f, "audit challenge carries no response deadline; silence cannot convict — audit claim ignored")
			return 0, false
		}
		if a.now().Before(deadline) {
			*f = append(*f, fmt.Sprintf("audit challenge response deadline %s has not passed; silence does not yet convict", deadline.Format(time.RFC3339)))
			return 0, false
		}
		*f = append(*f, fmt.Sprintf("no audit response answers a valid challenge whose deadline %s has lapsed: the respondent never proved continued possession", deadline.Format(time.RFC3339)))
		return VerdictAuditFailed, true
	}
	if c.AuditResponse == nil {
		return silence("NO audit response was submitted")
	}
	if !a.verify(c.AuditResponse, c.RespondentID, c.TxnID, f, "audit response") {
		return silence("the submitted audit response is not authentically the respondent's; treating the challenge as unanswered")
	}
	if c.AuditResponse.Header.Kind != evidence.KindAuditResponse {
		return silence(fmt.Sprintf("submitted audit response has kind %s, want audit-response; treating the challenge as unanswered", c.AuditResponse.Header.Kind))
	}
	resp, err := audit.ParseResponseNote(c.AuditResponse.Header.Note)
	if err != nil {
		*f = append(*f, fmt.Sprintf("audit response note unparseable: %v", err))
		return VerdictAuditFailed, true
	}
	if !bytes.Equal(resp.Nonce, ch.Nonce) {
		return silence("the submitted audit response echoes a different nonce — it answers some other challenge; treating this challenge as unanswered")
	}
	if deadline := c.AuditChallenge.Header.TimeLimit; !deadline.IsZero() &&
		c.AuditResponse.Header.Timestamp.After(deadline) {
		*f = append(*f, fmt.Sprintf("audit response came at %s, after the challenge deadline %s",
			c.AuditResponse.Header.Timestamp.Format(time.RFC3339), deadline.Format(time.RFC3339)))
		return VerdictAuditFailed, true
	}
	respKey, err := a.partyKey(c.RespondentID, c.AuditResponse.Header.Timestamp)
	if err != nil {
		*f = append(*f, fmt.Sprintf("audit response: respondent %q has no valid certificate: %v", c.RespondentID, err))
		return VerdictAuditFailed, true
	}
	if err := resp.Verify(respKey, ch, root); err != nil {
		*f = append(*f, fmt.Sprintf("audit response FAILS against the committed root: %v", err))
		return VerdictAuditFailed, true
	}
	*f = append(*f, fmt.Sprintf("audit response proves all %d challenged leaves against the committed root", len(ch.Indices)))
	if c.AuditOnly {
		// The dispute contests only dwell integrity, the respondent
		// proved possession, and no download is in question — the claim
		// is false.
		*f = append(*f, "audit-only dispute; the dwell-integrity claim is disproven")
		return VerdictClaimFalse, true
	}
	// The verified response clears the dwell period but the case also
	// demands production: a provider that once passed an audit and has
	// since lost the object must still answer for the data itself, so
	// the produced-data judgment proceeds.
	return 0, false
}
