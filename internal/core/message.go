// Package core implements the paper's primary contribution: the
// Two-Party Non-Repudiation (TPNR) protocol for cloud storage (§4).
//
// Four roles participate (Fig. 6a): the Client (Alice), the Cloud
// Storage Provider (Bob), a Trusted Third Party, and an Arbitrator.
// This package provides the Client and Provider engines and the wire
// message format; the TTP and Arbitrator live in internal/ttp and
// internal/arbitrator.
//
// Three modes (§4.4):
//
//   - Normal: Alice and Bob exchange message + evidence directly in two
//     steps, TTP off-line (Fig. 6b). Alice's step carries the NRO, Bob's
//     reply the NRR.
//   - Abort: Alice cancels an ongoing transaction by sending the
//     transaction ID with an abort NRO; Bob answers Accept or Reject
//     with an NRR — still without TTP (§4.2).
//   - Resolve: when a response does not arrive before the time limit,
//     the disadvantaged party escalates to the in-line TTP, which
//     queries the peer and either relays its evidence or issues a
//     signed unresponsiveness statement (§4.3).
//
// Disputes are settled off-line by the arbitrator over the archived
// evidence (Fig. 6d).
package core

import (
	"fmt"

	"repro/internal/evidence"
	"repro/internal/wire"
)

// Message is the TPNR wire unit: a plaintext header, an optional bulk
// payload (object data), and the sealed evidence for the recipient.
type Message struct {
	// HeaderBytes is the canonical encoding of the plaintext header.
	// Kept in encoded form so signatures verify against exactly what
	// traveled.
	HeaderBytes []byte
	// Payload carries object data on upload (NRO) and download
	// response messages; empty otherwise. In a decoded message it
	// aliases the frame (see DecodeMessage).
	Payload []byte
	// Sealed is the evidence ciphertext, encrypted for the recipient.
	Sealed []byte
}

// Header decodes the plaintext header.
func (m *Message) Header() (*evidence.Header, error) {
	return evidence.DecodeHeader(m.HeaderBytes)
}

// Encode serializes the message for framing.
func (m *Message) Encode() []byte {
	e := wire.NewEncoder(len(m.HeaderBytes) + len(m.Payload) + len(m.Sealed) + 32)
	e.String("tpnr-msg-v1")
	e.Bytes32(m.HeaderBytes)
	e.Bytes32(m.Payload)
	e.Bytes32(m.Sealed)
	return e.Bytes()
}

// DecodeMessage reverses Encode. Unsigned control frames (overload
// sheds) decode to their typed error so every receive site classifies
// them without caring about framing.
//
// Payload is a view into b, not a copy (nil when empty); its capacity
// ends where it does, so an append to it cannot overwrite b. It is
// valid only as long as b is: a core.Handler must not keep it past its
// return, because Server recycles the inbound frame then. HeaderBytes
// and Sealed are copies — they are small, and the evidence built from
// them is journaled, cached and archived long after the frame is gone.
func DecodeMessage(b []byte) (*Message, error) {
	d := wire.NewDecoder(b)
	if err := d.Magic("tpnr-msg-v1"); err != nil {
		if c := wire.NewDecoder(b); c.Magic(ctlMagic) == nil {
			return nil, decodeControlErr(c)
		}
		return nil, fmt.Errorf("core: bad message: %w", err)
	}
	m := &Message{HeaderBytes: d.Bytes32()}
	if p := d.View32(); len(p) > 0 {
		m.Payload = p[:len(p):len(p)]
	}
	m.Sealed = d.Bytes32()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: decoding message: %w", err)
	}
	return m, nil
}
