package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/arbitrator"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/cryptoutil"
)

// opKind is one kind of client-visible operation.
type opKind int

const (
	kUpload opKind = iota
	kDownload
	kAudit
	kResolve
	kSettle
	kArbitrate
	kRecover
	nKinds
)

var kindNames = [nKinds]string{"upload", "download", "audit", "resolve", "settle", "arbitrate", "recover"}

// auditLeaves is how many leaves every audit challenges.
const auditLeaves = 16

// workload is one set of inputs. Each round is a fixed, seeded list of
// operations: a fixed count, not a fixed duration, so per-operation
// counts repeat exactly from round to round and run to run.
type workload struct {
	name string
	why  string
	topo topoConfig
	// size and ring bound the footprint: every object has size bytes
	// and its key is one of ring keys, overwritten in place.
	size, ring int
	// headline is the kind p50_ms reports.
	headline opKind
	// maxRounds caps the measured rounds; the run's time budget may
	// stop it sooner, never below minRounds.
	maxRounds int
	// fixture asks set-up for the crashed provider that recovery
	// restarts.
	fixture bool
	round   func(e *env, r *roundRec) error
}

const (
	warmupRounds = 2
	minRounds    = 5
	// smokeRing is the ring of the smoke test, which has no time to
	// fill 256 keys.
	smokeRing = 32
)

func workloads() []*workload {
	return []*workload{
		{
			name:      "upload_small",
			why:       "4 KiB uploads, 1 shard, R=1: protocol-bound, so crypto, evidence, wal and per-message transport do the work; payload changes must not move it",
			topo:      topoConfig{shards: 1, replicas: 1},
			size:      4 << 10,
			ring:      256,
			headline:  kUpload,
			maxRounds: 9,
			round:     func(e *env, r *roundRec) error { return uploadRound(e, r, 300) },
		},
		{
			name:      "large_mix",
			why:       "1 MiB uploads, downloads and 16-leaf audits shuffled over 32 keys: payload-bound (hashing, merkle, copies, storage) and writes beside reads",
			topo:      topoConfig{shards: 1, replicas: 1},
			size:      1 << 20,
			ring:      32,
			headline:  kUpload,
			maxRounds: 9,
			round:     func(e *env, r *roundRec) error { return mixRound(e, r, 45) },
		},
		{
			name:      "replicated",
			why:       "64 KiB uploads through SessionPool on 4 shards x R=3, quorum 2: the production topology, the only workload where shard and replica do work",
			topo:      topoConfig{shards: 4, replicas: 3},
			size:      64 << 10,
			ring:      64,
			headline:  kUpload,
			maxRounds: 9,
			round:     func(e *env, r *roundRec) error { return uploadRound(e, r, 250) },
		},
		{
			name:      "dispute",
			why:       "the aftermath path: resolve stalled uploads via the TTP over TCP, settle K=16, arbitrate from cold archives with seeded tampering, recover a crashed provider",
			topo:      topoConfig{shards: 1, replicas: 1, withTTP: true},
			size:      4 << 10,
			ring:      256,
			headline:  kResolve,
			maxRounds: 20,
			fixture:   true,
			round:     disputeRound,
		},
	}
}

func workloadNamed(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// slot is one key of the ring and what the harness last put under it.
type slot struct {
	key  string
	data []byte
	txn  string            // the upload that stored data
	root cryptoutil.Digest // the audit commitment in that upload's NRR
}

// env is one run of one workload: the booted deployment and the seeded
// input generator. The program under test sees only what env generates.
type env struct {
	wl    *workload
	t     *topo
	keys  keySet
	rng   *rand.Rand
	seed  int64
	scale float64 // 1 in a run; the smoke test shrinks every count
	slots []slot
	// payloads are seeded blocks the uploads stamp and send, so that no
	// round pays for a megabyte of fresh random bytes per operation.
	payloads [][]byte
	txns     int
	stamp    uint64

	arb       *arbitrator.Arbitrator
	fx        *fixture // dispute only: what the crashed provider left
	recovered int      // journal records the last recovery replayed

	// The measured phase as a whole, checkpoints included: what it
	// counted, how many operations it ran, how far the archives grew.
	phase             counts
	phaseOps          int
	phaseArchiveBytes int64
}

func newEnv(wl *workload, keys keySet, seed int64, scale float64) *env {
	e := &env{wl: wl, keys: keys, rng: rand.New(rand.NewSource(seed)), seed: seed, scale: scale}
	for i := 0; i < 4; i++ {
		p := make([]byte, wl.size)
		e.rng.Read(p)
		e.payloads = append(e.payloads, p)
	}
	ring := wl.ring
	if scale < 1 && ring > smokeRing {
		ring = smokeRing
	}
	e.slots = make([]slot, ring)
	for i := range e.slots {
		e.slots[i] = slot{key: fmt.Sprintf("bench/%s/%03d", wl.name, i), data: make([]byte, wl.size)}
	}
	return e
}

func (e *env) ringKeys() []string {
	keys := make([]string, len(e.slots))
	for i := range e.slots {
		keys[i] = e.slots[i].key
	}
	return keys
}

// n scales an operation count; the smoke test runs a fiftieth.
func (e *env) n(count int) int {
	if n := int(float64(count)*e.scale + 0.5); n > 1 {
		return n
	}
	return 1
}

// newTxn returns a fresh fixed-width transaction ID. The seed is part
// of it, so shard routing varies with the seed too.
func (e *env) newTxn() string {
	e.txns++
	return fmt.Sprintf("%08x-%07d", uint32(e.seed), e.txns)
}

// job is one planned upload: everything the seeded generator decides
// about it, drawn before the clock starts.
type job struct {
	slot    int
	payload int
	stamp   uint64
	txn     string
}

func (e *env) plan(slot int) job {
	e.stamp++
	return job{slot: slot, payload: e.rng.Intn(len(e.payloads)), stamp: e.stamp, txn: e.newTxn()}
}

// fill gives the job's slot fresh content: a seeded block with a unique
// stamp, so a stale read can never pass for the current version.
func (e *env) fill(j job) *slot {
	s := &e.slots[j.slot]
	copy(s.data, e.payloads[j.payload])
	binary.BigEndian.PutUint64(s.data, j.stamp)
	return s
}

// roundRec collects one round: per-operation latencies and the cost of
// the round's timed sections.
type roundRec struct {
	e *env
	// prep marks preparation: its operations are checked but neither
	// reported nor traced.
	prep bool

	lat      [nKinds][]float64 // milliseconds, as the client experienced them
	ops      int
	failed   int
	failures []string

	wall time.Duration
	c    counts
}

func newRoundRec(e *env) *roundRec { return &roundRec{e: e, c: make(counts)} }

func newPrepRec(e *env) *roundRec { return &roundRec{e: e, prep: true} }

// timed runs f as a timed section: its wall time and the difference of
// two readings around it are the round's cost. A round may have several
// sections with untimed preparation between them.
func (r *roundRec) timed(f func()) error {
	before := r.e.t.read()
	start := time.Now()
	f()
	r.wall += time.Since(start)
	if err := r.e.t.settle(); err != nil {
		return err
	}
	r.c.addDiff(before, r.e.t.read())
	return nil
}

func (r *roundRec) fail(kind opKind, txn string, err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("%s %s: %v", kindNames[kind], txn, err))
	}
}

// op runs and times one operation. check, which may be nil, verifies
// the output after the clock has stopped; an operation that errs or
// fails its check counts as failed.
func (r *roundRec) op(kind opKind, txn string, run, check func() error) {
	done := func() {}
	if !r.prep {
		done = r.e.t.tr.beginOp(kindNames[kind], txn)
	}
	start := time.Now()
	err := run()
	d := time.Since(start)
	done()
	if err == nil && check != nil {
		err = check()
	}
	r.ops++
	r.lat[kind] = append(r.lat[kind], ms(d))
	if err != nil {
		r.fail(kind, txn, err)
	}
}

var bg = context.Background()

// upload overwrites the job's slot and checks the receipt: the NRR must
// name the key and length, commit to the digests the NRO carried, and
// carry the audit root.
func (e *env) upload(r *roundRec, j job) {
	s := e.fill(j)
	var res *core.UploadResult
	r.op(kUpload, j.txn, func() (err error) {
		if e.t.pool != nil {
			res, err = e.t.pool.Upload(bg, j.txn, s.key, s.data)
		} else {
			res, err = e.t.client.Upload(bg, e.t.conn, j.txn, s.key, s.data)
		}
		return err
	}, func() error {
		h := res.NRR.Header
		if h.ObjectKey != s.key || h.ObjectLen != uint64(len(s.data)) || !h.DataSHA256.Equal(res.NRO.Header.DataSHA256) {
			return fmt.Errorf("NRR does not commit to the uploaded object")
		}
		root, _, err := audit.ParseRootNote(h.Note)
		if err != nil {
			return fmt.Errorf("NRR carries no audit commitment: %w", err)
		}
		s.txn, s.root = j.txn, root
		return nil
	})
}

// download reads s back: the bytes must be the ones uploaded and the
// client must have matched them against the upload's receipt.
func (e *env) download(r *roundRec, s *slot, txn string) {
	var res *core.DownloadResult
	r.op(kDownload, txn, func() (err error) {
		res, err = e.t.client.Download(bg, e.t.conn, txn, s.key, s.txn)
		return err
	}, func() error {
		if !res.IntegrityOK || res.AgreedUpload == nil {
			return fmt.Errorf("download not checked against the upload receipt")
		}
		if !bytes.Equal(res.Data, s.data) {
			return fmt.Errorf("downloaded bytes differ from uploaded bytes")
		}
		return nil
	})
}

// auditSlot challenges s: every challenged leaf must be proved against
// the root in the upload's NRR.
func (e *env) auditSlot(r *roundRec, s *slot) {
	var rep *core.AuditReport
	r.op(kAudit, s.txn, func() (err error) {
		rep, err = e.t.client.AuditObject(bg, e.t.conn, s.txn, auditLeaves)
		return err
	}, func() error {
		if len(rep.Response.Entries) != auditLeaves {
			return fmt.Errorf("audit proved %d leaves, want %d", len(rep.Response.Entries), auditLeaves)
		}
		if !rep.Root.Equal(s.root) {
			return fmt.Errorf("audit proved against a root other than the NRR's")
		}
		return nil
	})
}

// prefill uploads every key of the ring once, so that downloads and
// audits always find an object and the blob store's size is flat from
// the first round on.
func (e *env) prefill() error {
	r := newPrepRec(e)
	for i := range e.slots {
		e.upload(r, e.plan(i))
	}
	if r.failed > 0 {
		return fmt.Errorf("prefill: %d of %d uploads failed: %v", r.failed, r.ops, r.failures)
	}
	return nil
}

// uploadRound is count uploads to seeded keys.
func uploadRound(e *env, r *roundRec, count int) error {
	jobs := make([]job, e.n(count))
	for i := range jobs {
		jobs[i] = e.plan(e.rng.Intn(len(e.slots)))
	}
	return r.timed(func() {
		for _, j := range jobs {
			e.upload(r, j)
		}
	})
}

// mixRound is a seeded shuffle of `each` uploads, downloads and audits
// over seeded keys.
func mixRound(e *env, r *roundRec, each int) error {
	type step struct {
		kind opKind
		job  job
	}
	var steps []step
	for i := 0; i < e.n(each); i++ {
		for _, k := range []opKind{kUpload, kDownload, kAudit} {
			steps = append(steps, step{kind: k, job: e.plan(e.rng.Intn(len(e.slots)))})
		}
	}
	e.rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	return r.timed(func() {
		for _, st := range steps {
			switch st.kind {
			case kUpload:
				e.upload(r, st.job)
			case kDownload:
				e.download(r, &e.slots[st.job.slot], st.job.txn)
			case kAudit:
				e.auditSlot(r, &e.slots[st.job.slot])
			}
		}
	})
}
