// Package repro holds the top-level benchmark harness: one benchmark
// family per experiment in DESIGN.md's E1–E11 index. Run with
//
//	go test -bench=. -benchmem
//
// The absolute numbers are machine-dependent; the SHAPES the paper
// commits to (TPNR's two-message normal mode beating the traditional
// four-step baseline, fixed crypto cost amortizing with payload size,
// platform checks being cheap but blind) are asserted by the test
// suites and visible here as relative magnitudes.
package repro

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/auditlog"
	"repro/internal/bigobject"
	"repro/internal/bridging"
	"repro/internal/cloudsim/awssim"
	"repro/internal/cloudsim/azuresim"
	"repro/internal/cloudsim/gaesim"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/merkle"
	"repro/internal/metrics"
	"repro/internal/pki"
	"repro/internal/session"
	"repro/internal/sks"
	"repro/internal/storage"
	"repro/internal/traditional"
	"repro/internal/transport"
	"repro/internal/wal"
)

// --- E1: Azure SharedKey authorization ---------------------------------

func BenchmarkE1AzureSharedKeySign(b *testing.B) {
	svc := azuresim.New(storage.NewMem(nil), time.Now)
	key, err := svc.CreateAccount("bench")
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, 4096)
	req := &azuresim.Request{
		Method: "PUT", Resource: "/c/b", Account: "bench", Date: time.Now(),
		ContentMD5: cryptoutil.Sum(cryptoutil.MD5, body).Base64(), Body: body,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req.Sign(key)
	}
}

func BenchmarkE1AzureSharedKeyHandlePut(b *testing.B) {
	svc := azuresim.New(storage.NewMem(nil), time.Now)
	key, err := svc.CreateAccount("bench")
	if err != nil {
		b.Fatal(err)
	}
	client := azuresim.NewClient(svc, "bench", key)
	body := make([]byte, 4096)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, resp := client.PutBlock(fmt.Sprintf("/c/b%d", i), body)
		if resp.Status != 201 {
			b.Fatalf("status %d", resp.Status)
		}
	}
}

// --- E2: AWS manifest + import job --------------------------------------

func BenchmarkE2AWSManifestSignVerify(b *testing.B) {
	svc := awssim.New(storage.NewMem(nil), awssim.DefaultParams())
	secret, err := svc.CreateAccount("AKIA")
	if err != nil {
		b.Fatal(err)
	}
	u := &awssim.User{AccessKeyID: "AKIA", Secret: secret}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, sig := u.BuildManifest(fmt.Sprintf("J%d", i), "D", "bucket/x", "import")
		if !cryptoutil.VerifyHMACSHA256(secret, m.CanonicalBytes(), sig.MAC) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkE2AWSImportJob(b *testing.B) {
	svc := awssim.New(storage.NewMem(nil), awssim.DefaultParams())
	secret, err := svc.CreateAccount("AKIA")
	if err != nil {
		b.Fatal(err)
	}
	u := &awssim.User{AccessKeyID: "AKIA", Secret: secret}
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		job := fmt.Sprintf("J%d", i)
		m, sig := u.BuildManifest(job, "D", "bucket/x", "import")
		svc.ReceiveManifestMail(awssim.Email{Manifest: m})
		dev := awssim.NewDevice("D")
		dev.Files["f"] = data
		if _, err := svc.ProcessImport(sig, dev); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: Azure put/get round trip ----------------------------------------

func BenchmarkE3AzurePutGet(b *testing.B) {
	svc := azuresim.New(storage.NewMem(nil), time.Now)
	key, err := svc.CreateAccount("bench")
	if err != nil {
		b.Fatal(err)
	}
	client := azuresim.NewClient(svc, "bench", key)
	body := make([]byte, 16<<10)
	b.SetBytes(int64(len(body)) * 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		client.PutBlock("/c/rt", body)
		_, resp := client.GetBlock("/c/rt")
		if !azuresim.VerifyMD5(resp) {
			b.Fatal("verify failed")
		}
	}
}

// --- E4: SDC signed request -----------------------------------------------

func BenchmarkE4SDCSignedRequest(b *testing.B) {
	src := storage.NewMem(nil)
	src.Put("r/doc", make([]byte, 4096), cryptoutil.Digest{})
	tunnel := gaesim.NewTunnelServer()
	key := cryptoutil.InsecureTestKey(110)
	tunnel.RegisterConsumer("c", key.Signer().Public().Marshal())
	token, err := tunnel.IssueToken()
	if err != nil {
		b.Fatal(err)
	}
	dep := &gaesim.Deployment{Tunnel: tunnel, Agent: gaesim.NewAgent(src, []gaesim.Rule{{ViewerID: "*", ResourcePrefix: "r/"}})}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req, err := gaesim.BuildSignedRequest(key, "o", "v", "i", "a", "c", token, "r/doc")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := dep.Request(req); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: tamper detection via the agreed digest ---------------------------

func BenchmarkE5TamperDetectionCheck(b *testing.B) {
	// The hot path of the E5 defense: verifying served data against
	// the both-signed agreed digest.
	data := make([]byte, 1<<20)
	h := &evidence.Header{Kind: evidence.KindNRR, TxnID: "t", SenderID: "bob", RecipientID: "alice"}
	h.SetDigests(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !h.MatchesData(data) {
			b.Fatal("mismatch")
		}
	}
}

// --- E6: the four bridging solutions --------------------------------------

func benchBridge(b *testing.B, sol bridging.Solution) {
	ca := pki.NewAuthority("bench-ca", cryptoutil.InsecureTestKey(111))
	now := time.Now()
	mk := func(name string, slot int) *pki.Identity {
		id, err := pki.NewIdentity(ca, name, cryptoutil.InsecureTestKey(slot), now.Add(-time.Hour), now.Add(24*time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		return id
	}
	user, prov, tac := mk("u", 112), mk("p", 113), mk("t", 114)
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err := bridging.New(sol, user, prov, tac, ca.Lookup, storage.NewMem(nil))
		if err != nil {
			b.Fatal(err)
		}
		if err := br.Upload(context.Background(), "k", data); err != nil {
			b.Fatal(err)
		}
		if _, err := br.Dispute(context.Background(), "k"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6BridgingS1(b *testing.B) { benchBridge(b, bridging.S1NoTACNoSKS) }
func BenchmarkE6BridgingS2(b *testing.B) { benchBridge(b, bridging.S2SKSOnly) }
func BenchmarkE6BridgingS3(b *testing.B) { benchBridge(b, bridging.S3TACOnly) }
func BenchmarkE6BridgingS4(b *testing.B) { benchBridge(b, bridging.S4TACAndSKS) }

// --- E7: TPNR modes ---------------------------------------------------------

func newBenchDeploy(b *testing.B) *deploy.Deployment {
	b.Helper()
	d, err := deploy.New(deploy.Config{TestKeys: true, ResponseTimeout: 30 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	return d
}

func BenchmarkE7TPNRNormalUpload(b *testing.B) {
	d := newBenchDeploy(b)
	conn, err := d.DialProvider()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := fmt.Sprintf("bench-n-%d", i)
		if _, err := d.Client.Upload(context.Background(), conn, txn, "k"+txn, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7TPNRDownload(b *testing.B) {
	d := newBenchDeploy(b)
	conn, err := d.DialProvider()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	data := make([]byte, 64<<10)
	if _, err := d.Client.Upload(context.Background(), conn, "bench-up", "obj", data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := fmt.Sprintf("bench-d-%d", i)
		if _, err := d.Client.Download(context.Background(), conn, txn, "obj", "bench-up"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7TPNRAbort(b *testing.B) {
	d := newBenchDeploy(b)
	conn, err := d.DialProvider()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := fmt.Sprintf("bench-a-%d", i)
		if _, err := d.Client.Abort(context.Background(), conn, txn, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7TPNRResolve(b *testing.B) {
	d := newBenchDeploy(b)
	conn, err := d.DialProvider()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	// One stalled upload per iteration, then resolve through the TTP.
	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	short, err := deploy.New(deploy.Config{TestKeys: true, ResponseTimeout: 50 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer short.Close()
	short.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	sconn, err := short.DialProvider()
	if err != nil {
		b.Fatal(err)
	}
	defer sconn.Close()
	data := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := fmt.Sprintf("bench-r-%d", i)
		short.Client.Upload(context.Background(), sconn, txn, "k"+txn, data) // times out
		short.Provider.SetMisbehavior(core.Misbehavior{})
		ttpConn, err := short.DialTTP()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := short.Client.Resolve(context.Background(), ttpConn, txn, "bench"); err != nil {
			b.Fatal(err)
		}
		ttpConn.Close()
		short.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	}
}

// --- E8: TPNR vs traditional ------------------------------------------------

func BenchmarkE8TPNRUpload64K(b *testing.B)        { benchTPNRUpload(b, 64<<10) }
func BenchmarkE8TraditionalUpload64K(b *testing.B) { benchTraditionalUpload(b, 64<<10) }

func benchTPNRUpload(b *testing.B, size int) {
	d := newBenchDeploy(b)
	conn, err := d.DialProvider()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	data := make([]byte, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := fmt.Sprintf("bench-e8-%d", i)
		if _, err := d.Client.Upload(context.Background(), conn, txn, "k"+txn, data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTraditionalUpload(b *testing.B, size int) {
	ca := pki.NewAuthority("bench-ca", cryptoutil.InsecureTestKey(115))
	now := time.Now()
	mk := func(name string, slot int) *pki.Identity {
		id, err := pki.NewIdentity(ca, name, cryptoutil.InsecureTestKey(slot), now.Add(-time.Hour), now.Add(24*time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		return id
	}
	a, bb, tt := mk("a", 116), mk("b", 117), mk("t", 118)
	client := traditional.NewClient(a, ca.Lookup, &metrics.Counters{})
	provider := traditional.NewProvider(bb, ca.Lookup, storage.NewMem(nil), &metrics.Counters{})
	ttp := traditional.NewTTP(tt, ca.Lookup, &metrics.Counters{})
	data := make([]byte, size)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Upload(context.Background(), fmt.Sprintf("L%d", i), "k", data, provider, ttp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: attack-defense hot paths -------------------------------------------

func BenchmarkE9ReplayGuardCheck(b *testing.B) {
	g := session.NewGuard(1 << 16)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nonce := make([]byte, 16)
		nonce[0], nonce[1], nonce[2], nonce[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		if err := g.Check("txn", uint64(i+1), nonce, time.Time{}, now); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9EvidenceOpenVerify(b *testing.B) {
	alice := cryptoutil.InsecureTestKey(119)
	bob := cryptoutil.InsecureTestKey(120)
	h := &evidence.Header{Kind: evidence.KindNRO, TxnID: "t", SenderID: "alice", RecipientID: "bob"}
	h.SetDigests(make([]byte, 4096))
	_, sealed, err := evidence.BuildFor(alice.Signer(), bob.Signer().Public(), h)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := evidence.OpenWith(bob.Signer(), alice.Signer().Public(), sealed, h); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: overhead sweep and primitives --------------------------------------

func BenchmarkE10TPNRUpload(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size=%dKiB", size>>10), func(b *testing.B) {
			benchTPNRUpload(b, size)
		})
	}
}

func BenchmarkE10RawStorePut(b *testing.B) {
	for _, size := range []int{1 << 10, 64 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("size=%dKiB", size>>10), func(b *testing.B) {
			s := storage.NewMem(nil)
			data := make([]byte, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Put("k", data, cryptoutil.Digest{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE10HashMD5(b *testing.B)    { benchHash(b, cryptoutil.MD5) }
func BenchmarkE10HashSHA256(b *testing.B) { benchHash(b, cryptoutil.SHA256) }

func benchHash(b *testing.B, alg cryptoutil.HashAlg) {
	data := make([]byte, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cryptoutil.Sum(alg, data)
	}
}

func BenchmarkE10EvidenceBuild(b *testing.B) {
	alice := cryptoutil.InsecureTestKey(121)
	bob := cryptoutil.InsecureTestKey(122)
	h := &evidence.Header{Kind: evidence.KindNRO, TxnID: "t", SenderID: "alice", RecipientID: "bob"}
	h.SetDigests(make([]byte, 4096))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := evidence.BuildFor(alice.Signer(), bob.Signer().Public(), h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10SKSSplitReconstruct(b *testing.B) {
	secret := make([]byte, 16) // an MD5 value
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shares, err := sks.Split(secret, 3, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sks.Reconstruct(shares[:2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10TransportPipe(b *testing.B) {
	x, y := transport.Pipe(64)
	defer x.Close()
	defer y.Close()
	msg := make([]byte, 4096)
	go func() {
		for {
			buf, err := y.Recv()
			if err != nil {
				return
			}
			// Recv transfers ownership; returning the buffer to the
			// transport pool is what keeps the steady state alloc-free.
			transport.Recycle(buf)
		}
	}()
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := x.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension features: Merkle chunking, audit log, chunked objects ---

func BenchmarkXMerkleTree(b *testing.B) {
	for _, chunks := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			data := make([][]byte, chunks)
			for i := range data {
				data[i] = make([]byte, 4096)
				data[i][0] = byte(i)
			}
			b.SetBytes(int64(chunks) * 4096)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := merkle.New(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkXMerkleProveVerify(b *testing.B) {
	data := make([][]byte, 1024)
	for i := range data {
		data[i] = make([]byte, 1024)
		data[i][0] = byte(i)
	}
	tr, err := merkle.New(data)
	if err != nil {
		b.Fatal(err)
	}
	root := tr.Root()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx := i % len(data)
		p, err := tr.Prove(idx)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Verify(root, data[idx]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXAuditAppend(b *testing.B) {
	l := auditlog.New(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append("upload", "txn", "benchmark event")
	}
}

func BenchmarkXAuditVerifyChain(b *testing.B) {
	l := auditlog.New(nil)
	for i := 0; i < 1000; i++ {
		l.Append("upload", "txn", "event")
	}
	entries := l.Entries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := auditlog.Verify(entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXBigObjectUpload(b *testing.B) {
	d := newBenchDeploy(b)
	conn, err := d.DialProvider()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("big/%d", i)
		if _, err := bigobject.Upload(context.Background(), d.Client, conn, fmt.Sprintf("bx-%d", i), key, data, 16<<10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10EvidenceSignOnly ablates the paper's confidentiality
// requirement: evidence WITHOUT the hybrid encryption (signatures
// only). Compare with BenchmarkE10EvidenceBuild to see what
// "encrypted with the recipient's public key" (§4.1) costs.
func BenchmarkE10EvidenceSignOnly(b *testing.B) {
	alice := cryptoutil.InsecureTestKey(121).Signer()
	h := &evidence.Header{Kind: evidence.KindNRO, TxnID: "t", SenderID: "alice", RecipientID: "bob"}
	h.SetDigests(make([]byte, 4096))
	hdr := h.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := alice.Sign(hdr); err != nil {
			b.Fatal(err)
		}
		if _, err := alice.Sign(hdr[:64]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10 concurrent session engine ------------------------------------------
//
// The sweep below measures the tentpole of the concurrent runtime: N
// client workers multiplex protocol runs through a SessionPool against
// one core.Server. Every client-side send pays a simulated WAN latency
// (benchWANDelay), which is exactly the cost a session pool exists to
// overlap; ops/sec should therefore scale with the client count until
// the single provider's CPU saturates. p50/p99 per-operation latency
// comes from metrics.Latencies.

// benchWANDelay is the simulated one-way network latency added to each
// client-side message send.
const benchWANDelay = 20 * time.Millisecond

// newBenchPool wires a SessionPool whose provider connections model a
// WAN link. The fault layer's Stats feed a wire-msgs metric so the
// report shows how many messages the WAN actually carried per op.
func newBenchPool(b *testing.B, d *deploy.Deployment, clients int) *core.SessionPool {
	b.Helper()
	var mu sync.Mutex
	var conns []*transport.FaultyConn
	b.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, fc := range conns {
			total += fc.Stats().Sent
		}
		if b.N > 0 {
			b.ReportMetric(float64(total)/float64(b.N), "wire-msgs/op")
		}
	})
	return core.NewSessionPool(d.Client, func(ctx context.Context) (transport.Conn, error) {
		conn, err := d.Net.DialContext(ctx, deploy.ProviderName)
		if err != nil {
			return nil, err
		}
		fc := transport.Faulty(conn, transport.FaultSpec{Delay: benchWANDelay})
		mu.Lock()
		conns = append(conns, fc)
		mu.Unlock()
		return fc, nil
	}, core.PoolMaxConns(clients))
}

// runConcurrent distributes b.N operations over `clients` workers via
// an atomic iteration counter and reports ops/sec plus p50/p99
// operation latency.
func runConcurrent(b *testing.B, clients int, op func(worker, iter int) error) {
	b.Helper()
	var lat metrics.Latencies
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i > b.N {
					return
				}
				t0 := time.Now()
				if err := op(w, i); err != nil {
					b.Error(err)
					return
				}
				lat.Record(time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "ops/s")
	}
	b.ReportMetric(float64(lat.Percentile(50))/1e6, "p50-ms")
	b.ReportMetric(float64(lat.Percentile(99))/1e6, "p99-ms")
}

func BenchmarkE10ConcurrentUpload(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			d := newBenchDeploy(b)
			pool := newBenchPool(b, d, clients)
			defer pool.Close()
			data := make([]byte, 4<<10)
			b.SetBytes(int64(len(data)))
			runConcurrent(b, clients, func(w, i int) error {
				txn := fmt.Sprintf("bcu-%d-%d", w, i)
				_, err := pool.Upload(context.Background(), txn, "k/"+txn, data)
				return err
			})
		})
	}
}

func BenchmarkE10ConcurrentDownload(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			d := newBenchDeploy(b)
			conn, err := d.DialProvider()
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			if _, err := d.Client.Upload(context.Background(), conn, "bench-seed", "obj", make([]byte, 4<<10)); err != nil {
				b.Fatal(err)
			}
			pool := newBenchPool(b, d, clients)
			defer pool.Close()
			b.SetBytes(4 << 10)
			runConcurrent(b, clients, func(w, i int) error {
				txn := fmt.Sprintf("bcd-%d-%d", w, i)
				_, err := pool.Download(context.Background(), txn, "obj", "bench-seed")
				return err
			})
		})
	}
}

// --- E11: hot-path throughput (PR 3) -----------------------------------------
//
// The four families below back EXPERIMENTS.md E11:
// WAL group commit vs per-append fsync, multi-algorithm hashing,
// Merkle tree construction after the streamed leaf hash, and the
// evidence verification cache. cmd/benchreport runs them and computes
// the acceptance ratios.

// BenchmarkE11WALAppend measures journal append throughput under the
// per-append-fsync policy (always) and group commit, at 1 and 16
// concurrent appenders. fsyncs/op makes the coalescing visible: group
// mode at 16 appenders should show a small fraction of one fsync per
// record while keeping the acked ⇒ synced guarantee.
func BenchmarkE11WALAppend(b *testing.B) {
	rec := make([]byte, 256)
	for _, pol := range []struct {
		name string
		opt  wal.Options
	}{
		{"always", wal.Options{Policy: wal.SyncAlways}},
		{"group", wal.Options{Policy: wal.SyncGroup}},
	} {
		for _, appenders := range []int{1, 16} {
			b.Run(fmt.Sprintf("policy=%s/appenders=%d", pol.name, appenders), func(b *testing.B) {
				w, err := wal.Open(b.TempDir(), pol.opt)
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				b.SetBytes(int64(len(rec)))
				b.ReportAllocs()
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for g := 0; g < appenders; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							if err := w.Append(rec); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				if b.N > 0 {
					b.ReportMetric(float64(w.Syncs())/float64(b.N), "fsyncs/op")
				}
			})
		}
	}
}

// BenchmarkE11ParallelHash compares computing the evidence digest pair
// (MD5 + SHA256 over the same payload) sequentially vs via
// cryptoutil.SumParallel, which runs the two sequential hash chains on
// separate goroutines. At GOMAXPROCS=1 SumParallel deliberately falls
// back to the serial path, so the ratio honestly reports ~1.0 there.
func BenchmarkE11ParallelHash(b *testing.B) {
	data := make([]byte, 4<<20)
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cryptoutil.Sum(cryptoutil.MD5, data)
			cryptoutil.Sum(cryptoutil.SHA256, data)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cryptoutil.SumParallel(data, cryptoutil.MD5, cryptoutil.SHA256)
		}
	})
}

// BenchmarkE11MerkleBuild measures tree construction over a 16 MiB
// object in 4 KiB chunks — the bigobject upload shape. The streamed
// leaf hash (no per-leaf prefix+chunk copy) is the allocation win
// visible against the pre-PR XMerkleTree numbers; level-parallel
// construction engages when GOMAXPROCS allows.
func BenchmarkE11MerkleBuild(b *testing.B) {
	chunks := make([][]byte, 4096)
	for i := range chunks {
		chunks[i] = make([]byte, 4096)
		chunks[i][0] = byte(i)
	}
	b.SetBytes(int64(len(chunks)) * 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := merkle.New(chunks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11VerifyCache measures evidence signature verification
// cold (two RSA verifies per call) vs warm (repeat verification of the
// same evidence through the VerifyCache — two hash lookups). The warm
// path is what the TTP resolve handler and the arbitrator hit when the
// same evidence is resubmitted.
func BenchmarkE11VerifyCache(b *testing.B) {
	signer := cryptoutil.InsecureTestKey(123)
	peer := cryptoutil.InsecureTestKey(124)
	// Hot paths hold parsed key handles (the keystore World and the
	// party peer cache), so the benchmark reuses one handle too —
	// fingerprints memoize inside the handle.
	signerPub := signer.Signer().Public()
	h := &evidence.Header{Kind: evidence.KindNRO, TxnID: "t", SenderID: "alice", RecipientID: "bob"}
	h.SetDigests(make([]byte, 4096))
	ev, _, err := evidence.BuildFor(signer.Signer(), peer.Signer().Public(), h)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ev.VerifyWith(signerPub); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		c := evidence.NewVerifyCache(64)
		if err := ev.VerifyCachedWith(signerPub, c); err != nil {
			b.Fatal(err) // prime
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ev.VerifyCachedWith(signerPub, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E12: scheme-agnostic crypto, batch verification, aggregation ---

// e12Keys returns one production-strength key pair per (scheme, slot):
// DefaultRSABits RSA or Ed25519. The insecure cached test keys are
// 1024-bit and would understate RSA's per-message private-key cost —
// exactly the quantity the scheme comparison is about — so the E12
// families generate real keys once and memoize them.
var (
	e12KeyMu   sync.Mutex
	e12KeyMemo = map[[2]int]cryptoutil.KeyPair{}
)

func e12Keys(b *testing.B, scheme cryptoutil.Scheme, slot int) cryptoutil.KeyPair {
	b.Helper()
	e12KeyMu.Lock()
	defer e12KeyMu.Unlock()
	id := [2]int{int(scheme), slot}
	if k, ok := e12KeyMemo[id]; ok {
		return k
	}
	k, err := cryptoutil.GenerateKeyPair(scheme, 0)
	if err != nil {
		b.Fatal(err)
	}
	e12KeyMemo[id] = k
	return k
}

// e12Evidence builds one sealed evidence item under the given scheme
// and returns the pieces a receive-side benchmark needs.
func e12Evidence(b *testing.B, scheme cryptoutil.Scheme, txn string) (sender, recipient cryptoutil.KeyPair, h *evidence.Header, ev *evidence.Evidence, sealed []byte) {
	b.Helper()
	sender = e12Keys(b, scheme, 0)
	recipient = e12Keys(b, scheme, 1)
	h = &evidence.Header{Kind: evidence.KindNRO, TxnID: txn, SenderID: "alice", RecipientID: "bob"}
	h.SetDigests(make([]byte, 4096))
	var err error
	ev, sealed, err = evidence.BuildFor(sender.Signer(), recipient.Signer().Public(), h)
	if err != nil {
		b.Fatal(err)
	}
	return
}

// BenchmarkE12EvidenceColdOpen measures the receive side of one
// evidence item with no cache: unseal plus two signature checks. This
// is where the schemes diverge hardest — RSA pays a private-key
// decrypt per message, Ed25519's hybrid unseal is a scalar
// multiplication (the >=5x Ed25519 target applies here).
func BenchmarkE12EvidenceColdOpen(b *testing.B) {
	for _, tc := range []struct {
		name   string
		scheme cryptoutil.Scheme
	}{{"rsa", cryptoutil.SchemeRSA}, {"ed25519", cryptoutil.SchemeEd25519}} {
		b.Run("scheme="+tc.name, func(b *testing.B) {
			sender, recipient, h, _, sealed := e12Evidence(b, tc.scheme, "t")
			b.ReportAllocs()
			b.ResetTimer() // key generation runs once, outside the measurement
			for i := 0; i < b.N; i++ {
				ev, err := evidence.OpenWith(recipient.Signer(), sender.Signer().Public(), sealed, h)
				if err != nil || ev == nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12AggregateReceipt prices settling a session of k uploads:
// one signature over a Merkle root of the k evidence digests (plus one
// verification on the other side) against k individual receipt
// signatures and verifications. The signature count is the paper-level
// claim; the wall clock shows what it buys.
func BenchmarkE12AggregateReceipt(b *testing.B) {
	const k = 64
	signer := e12Keys(b, cryptoutil.SchemeRSA, 2)
	pub := signer.Signer().Public()
	txns := make([]string, k)
	leaves := make([]cryptoutil.Digest, k)
	for i := range txns {
		txns[i] = fmt.Sprintf("txn-%d", i)
		_, _, _, ev, _ := e12Evidence(b, cryptoutil.SchemeRSA, txns[i])
		leaves[i] = evidence.LeafDigest(ev)
	}
	now := time.Now()
	b.Run(fmt.Sprintf("mode=singles/k=%d", k), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < k; j++ {
				sig, err := signer.Signer().Sign(leaves[j].Sum)
				if err != nil {
					b.Fatal(err)
				}
				if err := pub.Verify(leaves[j].Sum, sig); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run(fmt.Sprintf("mode=aggregate/k=%d", k), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, _, err := evidence.BuildAggregateReceipt(signer.Signer(), "sess", "bob", txns, leaves, now)
			if err != nil {
				b.Fatal(err)
			}
			if err := r.VerifySig(pub); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E15: storage-dwell audit (DESIGN.md §14) --------------------------------

// BenchmarkE15Audit compares the audit sub-protocol against the only
// other way a client can verify the provider still holds its data:
// re-downloading the object. mode=download runs a full download
// session over the 1 MiB object; mode=challenge runs an n-leaf
// challenge-response round — the provider returns n random 4 KiB
// chunks with inclusion proofs against the Merkle root it committed
// to in the NRR, and the client rehashes the chunks and verifies the
// proofs and the response signature. The audit moves n chunks plus
// O(n log m) hashes instead of the whole object, so it must win by a
// growing margin as objects grow; cmd/benchreport pins the
// audit_vs_download_speedup_n4 floor.
func BenchmarkE15Audit(b *testing.B) {
	d := newBenchDeploy(b)
	conn, err := d.DialProvider()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := d.Client.Upload(context.Background(), conn, "bench-audit", "obj-audit", data); err != nil {
		b.Fatal(err)
	}

	b.Run("mode=download", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			txn := fmt.Sprintf("bench-ad-%d", i)
			if _, err := d.Client.Download(context.Background(), conn, txn, "obj-audit", "bench-audit"); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("mode=challenge/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := d.Client.AuditObject(context.Background(), conn, "bench-audit", n)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Response.Entries) != n {
					b.Fatalf("proved %d leaves, want %d", len(rep.Response.Entries), n)
				}
			}
		})
	}
}

// BenchmarkE15AuditArbitrate prices the off-line half of the audit
// protocol: given an archived challenge and response, how fast can an
// arbitrator (or any verifier) re-check the response against the
// committed root? This is the cost of conviction — it runs once per
// dispute, with no network and no data.
func BenchmarkE15AuditArbitrate(b *testing.B) {
	d := newBenchDeploy(b)
	conn, err := d.DialProvider()
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	data := make([]byte, 1<<20)
	if _, err := d.Client.Upload(context.Background(), conn, "bench-arb", "obj-arb", data); err != nil {
		b.Fatal(err)
	}
	rep, err := d.Client.AuditObject(context.Background(), conn, "bench-arb", 4)
	if err != nil {
		b.Fatal(err)
	}
	providerKey, err := d.CA.Lookup(deploy.ProviderName)
	if err != nil {
		b.Fatal(err)
	}
	pub, err := providerKey.Key()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.Response.Verify(pub, rep.Challenge, rep.Root); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E16: quorum-replicated evidence journal (DESIGN.md §15) -----------------

// BenchmarkE16Replication prices journal-on-quorum-before-ack: the
// same journaled 64 KiB upload with the provider's evidence journal
// unreplicated (mode=local — acks gate on the leader's own fsync, the
// pre-PR-10 shape) versus quorum-replicated at R=3 / write quorum 2
// (mode=quorum — every ack additionally waits for one of two
// in-process follower journals to fsync the record). The follower
// appends run in parallel with each other and overlap the protocol's
// crypto, so the structural claim benchreport pins is an overhead
// CEILING, not a speedup floor: surviving the loss of any single node
// must cost less than replication_quorum_overhead_r3 per acked upload.
func BenchmarkE16Replication(b *testing.B) {
	run := func(b *testing.B, replicated bool) {
		dir := b.TempDir()
		pw, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { pw.Close() })
		cfg := deploy.Config{
			TestKeys:        true,
			ResponseTimeout: 30 * time.Second,
			ProviderOpts:    []core.Option{core.WithJournal(pw)},
		}
		if replicated {
			cfg.ProviderReplicas = 3
			cfg.ReplicaWAL = func(s, r int) (*wal.WAL, error) {
				return wal.Open(filepath.Join(dir, fmt.Sprintf("replica-%02d", r)), wal.Options{})
			}
		}
		d, err := deploy.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { d.Close() })
		conn, err := d.DialProvider()
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		data := make([]byte, 64<<10)
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			txn := fmt.Sprintf("bench-repl-%d", i)
			if _, err := d.Client.Upload(context.Background(), conn, txn, "k"+txn, data); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if replicated {
			// The quorum needs one follower per append; report how far the
			// slowest replica trails the leader when the run ends — the
			// anti-entropy backlog the repair loop drains.
			b.ReportMetric(float64(d.ReplicaGroups[0].Lag()), "lag-records")
		}
	}
	b.Run("mode=local", func(b *testing.B) { run(b, false) })
	b.Run("mode=quorum/r=3", func(b *testing.B) { run(b, true) })
}
