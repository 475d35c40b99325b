package main

import (
	"embed"
	"encoding/pem"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cryptoutil"
)

// The four RSA-2048 signers (cryptoutil.DefaultRSABits, the paper's key
// size) are committed fixtures: a random key search per process made
// set-up time and the cost of every signature differ from run to run.
// They protect nothing; they exist so that every run signs with the
// same moduli.
//
//go:embed testdata/*.pem
var keyFS embed.FS

// Party names, as cmd/nrserver, cmd/ttpd and internal/deploy use them.
const (
	caName       = "bench-ca"
	clientName   = "alice"
	providerName = "bob"
	ttpName      = "ttp"
)

type keySet struct{ ca, alice, bob, ttp cryptoutil.KeyPair }

// privClock is the time the process has spent inside private-key
// operations, and how many there were. It is context, not a correction:
// an upload is six RSA-2048 private-key operations, nine tenths of its
// latency, and on a shared host their price is the neighbours' doing, so
// a reader of a slow run wants to know what one of them cost while it
// ran (host.privkey_us) and that their number did not change
// (privkey_ops_per_op). No timing is adjusted by it.
type privClock struct{ ns, ops atomic.Int64 }

var priv privClock

// clockedSigner is the one seam every party signs through: a
// cryptoutil.Signer that clocks its private-key operations. Scheme and
// Public pass through.
type clockedSigner struct{ cryptoutil.Signer }

func (s clockedSigner) Sign(msg []byte) ([]byte, error) {
	start := time.Now()
	sig, err := s.Signer.Sign(msg)
	priv.ns.Add(int64(time.Since(start)))
	priv.ops.Add(1)
	return sig, err
}

func (s clockedSigner) Unseal(ciphertext []byte) ([]byte, error) {
	start := time.Now()
	plain, err := s.Signer.Unseal(ciphertext)
	priv.ns.Add(int64(time.Since(start)))
	priv.ops.Add(1)
	return plain, err
}

func loadKey(name string) (cryptoutil.KeyPair, error) {
	raw, err := keyFS.ReadFile("testdata/" + name + ".pem")
	if err != nil {
		return cryptoutil.KeyPair{}, err
	}
	block, _ := pem.Decode(raw)
	if block == nil {
		return cryptoutil.KeyPair{}, fmt.Errorf("testdata/%s.pem: no PEM block", name)
	}
	s, err := cryptoutil.ParseSigner(block.Bytes)
	if err != nil {
		return cryptoutil.KeyPair{}, fmt.Errorf("testdata/%s.pem: %w", name, err)
	}
	return cryptoutil.SignerKeyPair(clockedSigner{s}), nil
}

func loadKeys() (keySet, error) {
	var ks keySet
	var err error
	for _, k := range []struct {
		name string
		dst  *cryptoutil.KeyPair
	}{{"ca", &ks.ca}, {"alice", &ks.alice}, {"bob", &ks.bob}, {"ttp", &ks.ttp}} {
		if *k.dst, err = loadKey(k.name); err != nil {
			return ks, err
		}
	}
	return ks, nil
}
