package main

import (
	"bytes"
	"path/filepath"
	"time"

	"repro/internal/audit"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/merkle"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// A probe times one layer's public functions on this workload's message
// shapes, outside any deployment. Each is the median of probeBatches
// batches, in microseconds per call. Probes price the work the seams
// cannot see inside; count x probe is what the attribution multiplies.
const probeBatches = 5

func probe(calls int, f func()) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		per[b] = float64(time.Since(start)) / float64(time.Microsecond) / float64(calls)
	}
	return median(per)
}

// probeHeader is a header shaped like the NRO of one of this workload's
// uploads.
func probeHeader(e *env, data []byte) *evidence.Header {
	now := time.Now()
	h := &evidence.Header{
		Kind: evidence.KindNRO, TxnID: e.newTxn(), Seq: 1, Nonce: cryptoutil.MustNonce(),
		SenderID: clientName, RecipientID: providerName, TTPID: ttpName,
		Timestamp: now, TimeLimit: now.Add(time.Minute),
		ObjectKey: e.slots[0].key, ObjectLen: uint64(len(data)),
	}
	h.SetDigests(data)
	return h
}

// runProbes fills the probe-backed per-layer metrics. dir is scratch
// space on the same filesystem as the state directory.
func runProbes(e *env, dir string, out map[string]float64) error {
	data := e.payloads[0]
	alice, bob := e.keys.alice.Signer(), e.keys.bob.Signer()
	h := probeHeader(e, data)
	msg := h.Encode()

	// cryptoutil: the private- and public-key operations under every
	// message, and the digest pair over the payload.
	sig, err := alice.Sign(msg)
	if err != nil {
		return err
	}
	out["cryptoutil.sign_us"] = probe(20, func() { alice.Sign(msg) })
	out["cryptoutil.verify_us"] = probe(200, func() { alice.Public().Verify(msg, sig) })
	ev, sealed, err := evidence.BuildFor(alice, bob.Public(), h)
	if err != nil {
		return err
	}
	plain := ev.Encode()
	out["cryptoutil.seal_us"] = probe(100, func() { bob.Public().Seal(plain) })
	out["cryptoutil.unseal_us"] = probe(20, func() { bob.Unseal(sealed) })
	payloadCalls := 1 + (8<<20)/len(data)/8
	perPair := probe(payloadCalls, func() { h.SetDigests(data) })
	out["cryptoutil.digest_pair_mb_s"] = ratio(float64(len(data))/(1<<20), perPair/1e6)

	// evidence: build, and open with and without the verify cache.
	out["evidence.build_us"] = probe(10, func() { evidence.BuildFor(alice, bob.Public(), h) })
	out["evidence.open_cold_us"] = probe(10, func() { evidence.OpenWith(bob, alice.Public(), sealed, h) })
	cache := evidence.NewVerifyCache(64)
	if _, err := evidence.OpenCachedWith(bob, alice.Public(), sealed, h, cache); err != nil {
		return err
	}
	out["evidence.open_cached_us"] = probe(10, func() { evidence.OpenCachedWith(bob, alice.Public(), sealed, h, cache) })

	// wire: frame and unframe one upload-sized message.
	frame := make([]byte, 0, len(data)+len(sealed)+len(msg)+64)
	body := append(append(append([]byte(nil), msg...), data...), sealed...)
	out["wire.frame_us"] = probe(payloadCalls, func() {
		f, _ := wire.AppendFrame(frame[:0], body)
		wire.ReadFrameInto(bytes.NewReader(f), func(n int) []byte { return make([]byte, n) })
	})

	// merkle and audit: a 1 MiB object in 4 KiB leaves, 16 challenged,
	// whatever the workload's own object size — these two are the fixed
	// yardstick for the audit path.
	object := bytes.Repeat(e.payloads[0][:audit.ChunkSize], 256)
	chunks := merkle.Split(object, audit.ChunkSize)
	tree, err := merkle.New(chunks)
	if err != nil {
		return err
	}
	out["merkle.build_us"] = probe(4, func() { merkle.New(chunks) })
	root := tree.Root()
	out["merkle.prove_verify_us"] = probe(20, func() {
		for i := 0; i < auditLeaves; i++ {
			p, _ := tree.Prove(i * 16)
			p.Verify(root, chunks[i*16])
		}
	})
	ch, err := audit.NewChallenge(h.TxnID, uint32(len(chunks)), auditLeaves)
	if err != nil {
		return err
	}
	resp, err := audit.BuildResponse(bob, providerName, ch, tree, chunks, time.Now())
	if err != nil {
		return err
	}
	out["audit.respond_us"] = probe(4, func() {
		t, c, _ := audit.ObjectTree(object)
		audit.BuildResponse(bob, providerName, ch, t, c, time.Now())
	})
	out["audit.verify_us"] = probe(20, func() { resp.Verify(bob.Public(), ch, root) })

	// wal: one evidence-sized record, fsync on every append, and the
	// open of a journal that holds the batches just written.
	walDir := filepath.Join(dir, "probe-wal")
	w, err := wal.Open(walDir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	record := make([]byte, 1300)
	out["wal.append_us"] = probe(100, func() { w.Append(record) })
	if err := w.Close(); err != nil {
		return err
	}
	out["wal.open_ms"] = probe(1, func() {
		if w, err := wal.Open(walDir, wal.Options{Policy: wal.SyncAlways}); err == nil {
			w.Close()
		}
	}) / 1000

	// transport: one small frame there and back over loopback TCP.
	rtt, err := probeRTT()
	if err != nil {
		return err
	}
	out["transport.tcp_rtt_us"] = rtt
	return nil
}

func probeRTT() (float64, error) {
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil || conn.Send(m) != nil {
				return
			}
		}
	}()
	conn, err := transport.DialTCP(l.Addr())
	if err != nil {
		return 0, err
	}
	ping := make([]byte, 64)
	var perr error
	rtt := probe(200, func() {
		if err := conn.Send(ping); err != nil {
			perr = err
			return
		}
		if _, err := conn.Recv(); err != nil {
			perr = err
		}
	})
	conn.Close()
	<-done
	return rtt, perr
}
