package core

import "repro/internal/evidence"

// HotEvidence returns a copy of the evidence of one role that txn's
// record holds, oldest first (nil without a record).
func (p *party) HotEvidence(txn string, role evidence.Role) []*evidence.Evidence {
	var out []*evidence.Evidence
	p.view(txn, func(r *txnRecord) { out = append(out, r.ev[roleIndex(role)]...) })
	return out
}

// HotEvidence is party.HotEvidence for the TTP.
func (t *TTPParty) HotEvidence(txn string, role evidence.Role) []*evidence.Evidence {
	return t.p.HotEvidence(txn, role)
}
