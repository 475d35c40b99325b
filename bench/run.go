package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/arbitrator"
)

// setupBoots is how many times a run sets up. One set-up takes 10-20 ms,
// so set-up time is the median of several. They are taken in a row and
// not spread over the run: in a row, a run reads either the quiet host or
// a disturbed moment, and the median over runs shrugs off the second;
// spread between the rounds, every run read a blend of both, and ten
// runs spread 13 % where they had spread 5 %.
const setupBoots = 15

// runOpts is one invocation's settings.
type runOpts struct {
	seed      int64
	seconds   float64 // budget for warm-up and measured rounds; set-up comes on top
	trace     bool
	scale     float64 // 1, except in the smoke test
	rounds    int     // when > 0, run exactly this many measured rounds and no warm-up
	stateRoot string
	outDir    string
}

// roundSummary is what the detail file keeps of each round, so drift
// within a run is visible and not inferred.
type roundSummary struct {
	Round        int                `json:"round"`
	Warmup       bool               `json:"warmup"`
	Traced       bool               `json:"traced"`
	Ops          int                `json:"ops"`
	Failed       int                `json:"failed"`
	WallMs       float64            `json:"wall_ms"`
	PrivKeyMs    float64            `json:"privkey_ms"` // of WallMs, inside PrivKeyOps private-key operations
	PrivKeyOps   int64              `json:"privkey_ops"`
	OpsPerSec    float64            `json:"ops_s"`
	P50Ms        map[string]float64 `json:"p50_ms"`
	CPUMsPerOp   float64            `json:"cpu_ms_per_op"`
	AllocKBPerOp float64            `json:"alloc_kb_per_op"`
	GCCycles     int64              `json:"gc_cycles"`
	CheckpointMs float64            `json:"checkpoint_ms"`
	CalibMs      float64            `json:"calib_ms"`
	BlobBytes    int64              `json:"blob_bytes"`
	JournalBytes int64              `json:"journal_bytes"`
	StateBytes   int64              `json:"state_bytes"`
}

// result is one run of one workload.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Rounds     []roundSummary     `json:"rounds"`
	SetupS     []float64          `json:"setup_s_each"`
	StateFS    string             `json:"state_fs"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Clients    int                `json:"clients"`
	Claim      any                `json:"claim"` // always null: the benchmark's own change claims no gain
}

// measured is one measured round with everything aggregation needs.
type measured struct {
	rec *roundRec
	sum roundSummary
}

// runWorkload sets up, warms up, measures and checks one workload.
func runWorkload(wl *workload, opt runOpts) (*result, error) {
	keys, err := loadKeys()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.stateRoot, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(opt.stateRoot, wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	e := newEnv(wl, keys, opt.seed, opt.scale)
	tr := newTracer()
	res := &result{
		Workload: wl.name, Seed: opt.seed, StateFS: fsName(root),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: 1,
	}

	// Set-up: an empty directory to the first acknowledged upload,
	// setupBoots times in a row. The last deployment is the one measured.
	for i := 0; i < setupBoots; i++ {
		if e.t != nil {
			e.t.close()
			if err := os.RemoveAll(e.t.dir); err != nil {
				return nil, err
			}
		}
		t, d, err := e.setUp(filepath.Join(root, fmt.Sprintf("boot-%d", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		e.t = t
		res.SetupS = append(res.SetupS, d.Seconds())
	}
	defer func() { e.t.close() }()
	e.arb = arbitrator.NewWithKey(e.t.ca.Key(), e.t.ca.Lookup, nil)

	if wl.fixture {
		if err := e.buildFixture(filepath.Join(root, "fixture")); err != nil {
			return nil, err
		}
	}
	if err := e.prefill(); err != nil {
		return nil, err
	}
	if err := e.t.checkpoint(); err != nil {
		return nil, err
	}

	// Rounds. In a traced run the measured rounds alternate between
	// recording and not, so the run prices its own tracing.
	warm, maxRounds := warmupRounds, wl.maxRounds
	if opt.rounds > 0 {
		warm, maxRounds = 0, opt.rounds
	}
	var rounds []measured
	phase := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		n := i - warm // measured rounds so far
		if n >= maxRounds {
			break
		}
		if opt.rounds == 0 && n >= minRounds && time.Since(phase)+last > time.Duration(opt.seconds*float64(time.Second)) {
			break
		}
		start := time.Now()
		if n == 0 {
			e.phase = e.t.read()
			e.phaseArchiveBytes = e.t.archiveBytes()
		}
		traced := opt.trace && i >= warm && n%2 == 0
		tr.on.Store(traced)
		rec := newRoundRec(e)
		calib := calibrate()
		err := wl.round(e, rec)
		tr.on.Store(false)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		ckpt := time.Now()
		if err := e.t.checkpoint(); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		sum := summarize(i, i < warm, traced, rec, e.t)
		sum.CheckpointMs, sum.CalibMs = ms(time.Since(ckpt)), calib
		res.Rounds = append(res.Rounds, sum)
		res.Attempted += rec.ops
		res.Failed += rec.failed
		res.Failures = append(res.Failures, rec.failures...)
		if i >= warm {
			rounds = append(rounds, measured{rec: rec, sum: sum})
		}
		last = time.Since(start)
	}

	whole := make(counts)
	whole.addDiff(e.phase, e.t.read())
	e.phase = whole
	e.phaseArchiveBytes = e.t.archiveBytes() - e.phaseArchiveBytes
	for _, m := range rounds {
		e.phaseOps += m.rec.ops
	}

	// Guards: a key outside the ring, or a footprint that grows, means
	// the numbers above are not those of a steady state.
	if n := e.t.store.escapes.Load(); n > 0 {
		res.Failed += int(n)
		res.Failures = append(res.Failures, fmt.Sprintf("%d store operations used a key outside the ring", n))
	}
	if msg := footprintDrift(rounds); msg != "" {
		res.Failed++
		res.Failures = append(res.Failures, msg)
	}
	if len(res.Failures) > 8 {
		res.Failures = res.Failures[:8]
	}
	res.Correct = res.Failed == 0
	res.EndToEnd = endToEnd(wl, res, rounds)
	if opt.trace {
		res.PerLayer = perLayer(e, tr, rounds, res)
		if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeFile(filepath.Join(opt.outDir, "trace-"+wl.name+".json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setUp boots a deployment on an empty directory and uploads one object
// through it: what a user waits for before the first receipt.
func (e *env) setUp(dir string, tr *tracer) (*topo, time.Duration, error) {
	start := time.Now()
	t, err := boot(e.wl.topo, dir, e.keys, tr)
	if err != nil {
		return nil, 0, err
	}
	key := "bench/" + e.wl.name + "/setup"
	t.store.allow(append(e.ringKeys(), key))
	txn := e.newTxn()
	if t.pool != nil {
		_, err = t.pool.Upload(bg, txn, key, e.payloads[0])
	} else {
		_, err = t.client.Upload(bg, t.conn, txn, key, e.payloads[0])
	}
	d := time.Since(start)
	if err != nil {
		t.close()
		return nil, 0, fmt.Errorf("first upload: %w", err)
	}
	return t, d, nil
}

// summarize reduces one round to its summary line.
func summarize(i int, warm, traced bool, rec *roundRec, t *topo) roundSummary {
	ops := float64(rec.ops)
	s := roundSummary{
		Round: i, Warmup: warm, Traced: traced, Ops: rec.ops, Failed: rec.failed,
		WallMs:       ms(rec.wall),
		PrivKeyMs:    ms(time.Duration(rec.c[cPrivNs])),
		PrivKeyOps:   rec.c[cPrivOps],
		OpsPerSec:    ratio(ops, rec.wall.Seconds()),
		P50Ms:        make(map[string]float64),
		CPUMsPerOp:   ratio(ms(time.Duration(rec.c[cCPU])), ops),
		AllocKBPerOp: ratio(float64(rec.c[cAlloc])/1024, ops),
		GCCycles:     rec.c[cGC],
		BlobBytes:    dirBytes(filepath.Join(t.dir, "provider", "blobs")),
		StateBytes:   dirBytes(t.dir),
	}
	for _, sub := range []string{"client/wal", "provider/wal", "ttp/wal"} {
		s.JournalBytes += dirBytes(filepath.Join(t.dir, sub))
	}
	for k := opKind(0); k < nKinds; k++ {
		if len(rec.lat[k]) > 0 {
			s.P50Ms[kindNames[k]] = median(rec.lat[k])
		}
	}
	return s
}

// journalSlack is how far the journals' size may wander between two
// rounds: a checkpoint drops only sealed segments, so each journal
// keeps up to one segment it has not yet filled.
const journalSlack = 16 << 20

// footprintDrift compares the first and the last measured round. The
// blob store is a ring and must stay within 5 %; the journals are
// compacted by every checkpoint and must stay within their slack. The
// cold archive is append-only by design, so its growth is reported
// (archive.bytes_per_session, bench.state_mb_end) and not failed.
func footprintDrift(rounds []measured) string {
	if len(rounds) < 2 {
		return ""
	}
	first, last := rounds[0].sum, rounds[len(rounds)-1].sum
	if float64(last.BlobBytes) > 1.05*float64(first.BlobBytes) {
		return fmt.Sprintf("blob store grew from %d to %d bytes over the measured rounds", first.BlobBytes, last.BlobBytes)
	}
	if last.JournalBytes > first.JournalBytes+journalSlack {
		return fmt.Sprintf("journals grew from %d to %d bytes over the measured rounds", first.JournalBytes, last.JournalBytes)
	}
	return ""
}

// endToEnd reduces the measured rounds to the end-to-end metrics, all as
// measured. Latency is the round's median in the quiet decile of rounds
// (see quiet); allocation is the median over rounds; a count is the
// total over the total, so it repeats exactly. In a traced run only the
// rounds that did not record count.
func endToEnd(wl *workload, res *result, rounds []measured) map[string]float64 {
	var p50, alloc []float64
	total := make(counts)
	ops := 0
	for _, m := range rounds {
		if m.sum.Traced {
			continue
		}
		p50 = append(p50, m.sum.P50Ms[kindNames[wl.headline]])
		alloc = append(alloc, m.sum.AllocKBPerOp)
		total.addDiff(nil, m.rec.c)
		ops += m.rec.ops
	}
	n := float64(ops)
	return map[string]float64{
		"setup_s":            median(res.SetupS),
		"p50_ms":             quiet(p50),
		"alloc_kb_per_op":    median(alloc),
		"privkey_ops_per_op": ratio(float64(total[cPrivOps]), n),
		"journal_kb_per_op":  ratio(float64(total[cJournal])/1024, n),
		"fsyncs_per_op":      ratio(float64(total[cFsyncs]), n),
		"wire_kb_per_op":     ratio(float64(total[cWire])/1024, n),
		"ok_ratio":           1 - ratio(float64(res.Failed), float64(res.Attempted)),
	}
}
