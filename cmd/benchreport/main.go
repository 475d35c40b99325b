// Command benchreport runs the repository's hot-path benchmark
// families (E11 plus the pooled transport pipe, the E12 crypto API,
// E13 recovery, E14 sharding, E15 storage-dwell audit) and writes a
// machine-readable report, by default BENCH_PR8.json at the
// repository root.
//
// The report records the environment honestly — GOMAXPROCS in
// particular, because the parallel hash and Merkle paths deliberately
// fall back to serial on a single-CPU box — and computes the
// acceptance ratios the issue asks for:
//
//   - wal_group_vs_always_16appenders: append throughput of the
//     group-commit policy relative to fsync-per-append at 16
//     concurrent appenders (target ≥ 2×).
//   - parallel_hash_speedup: MD5+SHA256 digest pair computed via
//     SumParallel relative to sequential (target ≥ 1.5× on ≥ 4 cores;
//     ~1.0 at GOMAXPROCS=1 by design).
//   - verify_cache_speedup: repeat evidence verification through the
//     VerifyCache relative to cold RSA verification (target ≥ 5×).
//
// The E12 crypto-API families ride along with their own ratios:
// ed25519_cold_open_speedup (Ed25519 vs RSA evidence open, target ≥5×)
// and aggregate_receipt_speedup_k64 (one aggregate session receipt vs
// 64 individual receipt signatures).
//
// The E13 recovery family (internal/core) compares full journal replay
// against checkpoint-snapshot-plus-tail recovery of the same history:
// recovery_snapshot_speedup_1k/_10k (target ≥5× at 10k sessions).
//
// The E14 sharding family (internal/core) measures the ShardedEngine
// at 1→2→4→8 shards: sharded_upload_speedup_4x/_8x compare journaled
// upload throughput under 16 concurrent workers (one fsync stream per
// shard), and sharded_recovery_speedup_4x/_8x compare parallel
// fan-out recovery of the same 3000-session history. The ≥3×-at-8-
// shards and ≥2×-recovery-at-4-shards criteria apply at GOMAXPROCS≥8
// on storage with independent fsync streams; a single-core VM whose
// disk serializes flushes reports its own (honest) ceiling.
//
// Usage:
//
//	go run ./cmd/benchreport [-o BENCH_PR8.json] [-benchtime 1s]
//	go run ./cmd/benchreport -baseline BENCH_PR8.json -max-regress 0.05
//
// With -baseline, the freshly measured ns/op of every family shared
// with the baseline report is compared against it; -regress-skip marks
// families (by regexp) whose comparison is advisory only — the E14
// sharded and E11 WAL-append families are gated this way in
// `make bench-check` because they measure the host's fsync and
// scheduling behaviour, which drifts far past any code-regression
// budget on shared virtualized hardware. Any other benchmark slower
// by more than -max-regress (a fraction; 0.05 = 5%) fails the run.
//
// Cross-run ns/op comparison is only as stable as the host, so the
// gate's real teeth are within-run: -ratio-min and -ratio-max take
// comma-separated name=value bounds on the acceptance ratios above.
// Both sides of a ratio are measured in the same run on the same host,
// so CPU steal and disk drift cancel out — a broken group-commit path,
// a disabled verify cache, or reintroduced transport allocations fail
// the gate no matter how fast or slow the box happens to be today.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchPattern selects the families the report covers.
const benchPattern = `^(BenchmarkE11WALAppend|BenchmarkE11ParallelHash|BenchmarkE11MerkleBuild|BenchmarkE11VerifyCache|BenchmarkE10TransportPipe|BenchmarkE12EvidenceColdOpen|BenchmarkE12AggregateReceipt|BenchmarkE13Recovery|BenchmarkE14ShardedUpload|BenchmarkE14ShardedRecovery|BenchmarkE15Audit|BenchmarkE15AuditArbitrate|BenchmarkE16Replication)$`

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	MBPerSec    float64            `json:"mb_per_s,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the committed bench report (BENCH_PR8.json) schema.
type Report struct {
	GeneratedAt string             `json:"generated_at"`
	GoVersion   string             `json:"go_version"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	CPU         string             `json:"cpu,omitempty"`
	BenchTime   string             `json:"benchtime"`
	Results     []Result           `json:"results"`
	Ratios      map[string]float64 `json:"ratios"`
	Notes       []string           `json:"notes"`
	// VsBaseline maps benchmark name to new_ns_per_op / baseline_ns_per_op
	// when -baseline is given (1.03 = 3% slower than the baseline).
	VsBaseline map[string]float64 `json:"vs_baseline,omitempty"`
}

// benchLine matches "BenchmarkName[-P]  <iters>  <value unit>...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

func parseLine(line string, r *Result) bool {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return false
	}
	r.Name = m[1]
	r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
	r.Extra = map[string]float64{}
	fields := strings.Fields(m[3])
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "MB/s":
			r.MBPerSec = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			r.Extra[unit] = v
		}
	}
	if len(r.Extra) == 0 {
		r.Extra = nil
	}
	return r.NsPerOp > 0
}

func main() {
	out := flag.String("o", "BENCH_PR8.json", "output path for the JSON report")
	benchtime := flag.String("benchtime", "1s", "value passed to -benchtime")
	baseline := flag.String("baseline", "", "prior report to compare ns/op against (empty = no comparison)")
	maxRegress := flag.Float64("max-regress", 0.05, "fail when any shared benchmark is slower than the baseline by more than this fraction")
	regressSkip := flag.String("regress-skip", "", "regexp of benchmark names whose baseline comparison is advisory only (still measured and recorded, never fails the gate); for families bound to shared-disk fsync behaviour rather than code")
	ratioMin := flag.String("ratio-min", "", "comma-separated name=value floors on the computed acceptance ratios (fail when a named ratio measures below its floor); within-run, so host speed drift cancels out")
	ratioMax := flag.String("ratio-max", "", "comma-separated name=value ceilings on the computed acceptance ratios (e.g. transport_pipe_allocs_per_op=0)")
	flag.Parse()

	minBounds, err := parseBounds(*ratioMin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: -ratio-min: %v\n", err)
		os.Exit(1)
	}
	maxBounds, err := parseBounds(*ratioMax)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: -ratio-max: %v\n", err)
		os.Exit(1)
	}

	// The E13 recovery family lives inside internal/core (it fabricates
	// journal history through unexported helpers); everything else is in
	// the root harness package.
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", benchPattern, "-benchmem", "-benchtime", *benchtime, ".", "./internal/core")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: go test: %v\n%s", err, raw)
		os.Exit(1)
	}

	rep := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BenchTime:   *benchtime,
		Ratios:      map[string]float64{},
	}
	byName := map[string]Result{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.CPU = cpu
			continue
		}
		var r Result
		if parseLine(line, &r) {
			rep.Results = append(rep.Results, r)
			byName[r.Name] = r
		}
	}
	if len(rep.Results) == 0 {
		fmt.Fprintf(os.Stderr, "benchreport: no benchmark lines parsed from go test output:\n%s", raw)
		os.Exit(1)
	}

	// Acceptance ratios. Each is "time of the slow variant / time of
	// the fast variant", i.e. a throughput speedup; missing benchmarks
	// simply leave the ratio out rather than inventing a number.
	ratio := func(key, slow, fast string) {
		a, okA := byName[slow]
		b, okB := byName[fast]
		if okA && okB && b.NsPerOp > 0 {
			rep.Ratios[key] = a.NsPerOp / b.NsPerOp
		}
	}
	ratio("wal_group_vs_always_16appenders",
		"BenchmarkE11WALAppend/policy=always/appenders=16",
		"BenchmarkE11WALAppend/policy=group/appenders=16")
	ratio("wal_group_vs_always_1appender",
		"BenchmarkE11WALAppend/policy=always/appenders=1",
		"BenchmarkE11WALAppend/policy=group/appenders=1")
	ratio("parallel_hash_speedup",
		"BenchmarkE11ParallelHash/serial",
		"BenchmarkE11ParallelHash/parallel")
	ratio("verify_cache_speedup",
		"BenchmarkE11VerifyCache/cold",
		"BenchmarkE11VerifyCache/warm")
	if r, ok := byName["BenchmarkE10TransportPipe"]; ok {
		rep.Ratios["transport_pipe_allocs_per_op"] = r.AllocsPerOp
	}
	ratio("ed25519_cold_open_speedup",
		"BenchmarkE12EvidenceColdOpen/scheme=rsa",
		"BenchmarkE12EvidenceColdOpen/scheme=ed25519")
	ratio("aggregate_receipt_speedup_k64",
		"BenchmarkE12AggregateReceipt/mode=singles/k=64",
		"BenchmarkE12AggregateReceipt/mode=aggregate/k=64")
	ratio("recovery_snapshot_speedup_1k",
		"BenchmarkE13Recovery/mode=replay/sessions=1000",
		"BenchmarkE13Recovery/mode=snapshot/sessions=1000")
	ratio("recovery_snapshot_speedup_10k",
		"BenchmarkE13Recovery/mode=replay/sessions=10000",
		"BenchmarkE13Recovery/mode=snapshot/sessions=10000")
	ratio("sharded_upload_speedup_4x",
		"BenchmarkE14ShardedUpload/shards=1",
		"BenchmarkE14ShardedUpload/shards=4")
	ratio("sharded_upload_speedup_8x",
		"BenchmarkE14ShardedUpload/shards=1",
		"BenchmarkE14ShardedUpload/shards=8")
	ratio("sharded_recovery_speedup_4x",
		"BenchmarkE14ShardedRecovery/shards=1",
		"BenchmarkE14ShardedRecovery/shards=4")
	ratio("sharded_recovery_speedup_8x",
		"BenchmarkE14ShardedRecovery/shards=1",
		"BenchmarkE14ShardedRecovery/shards=8")
	ratio("audit_vs_download_speedup_n4",
		"BenchmarkE15Audit/mode=download",
		"BenchmarkE15Audit/mode=challenge/n=4")
	ratio("audit_vs_download_speedup_n16",
		"BenchmarkE15Audit/mode=download",
		"BenchmarkE15Audit/mode=challenge/n=16")
	ratio("replication_quorum_overhead_r3",
		"BenchmarkE16Replication/mode=quorum/r=3",
		"BenchmarkE16Replication/mode=local")

	rep.Notes = append(rep.Notes,
		fmt.Sprintf("GOMAXPROCS=%d; at 1 the SumParallel and Merkle level-parallel paths fall back to serial by design, so parallel_hash_speedup ~1.0 is expected there (the >=1.5x criterion applies on >=4 cores)", rep.GOMAXPROCS),
		"wal ratios compare wall time per acked-durable append; fsyncs/op in the WAL results shows the group-commit coalescing directly",
		"verify_cache_speedup compares two RSA verifies (cold) against two memo lookups (warm) for the same evidence item",
		"ed25519_cold_open_speedup compares a full evidence open (unseal + two signature checks) across schemes; RSA pays a private-key decrypt per message (target >=5x)",
		"aggregate_receipt_speedup_k64 compares 64 individual receipt sign+verify pairs against ONE aggregate signature over a Merkle root of the 64 evidence digests plus one verification",
		"recovery_snapshot_speedup_* compares full journal replay against snapshot-plus-tail recovery of the SAME history (n terminal sessions + a 16-session tail); the >=5x criterion applies at 10k sessions",
		"sharded_upload_speedup_* compares journaled upload throughput (SyncAlways, 16 workers) at 1 vs N shards: N independent fsync streams vs one; the >=3x-at-8-shards criterion applies at GOMAXPROCS>=8 on storage with parallel flush queues — a 1-core VM whose virtual disk serializes flushes tops out around the disk's own concurrent-fsync ceiling",
		"sharded_recovery_speedup_* compares crash recovery of the same 3000-session history replayed by one shard vs N shards in parallel (one goroutine each); replay is decode-bound CPU, so the >=2x-at-4-shards criterion applies at GOMAXPROCS>=4 and ~1.0x is expected at GOMAXPROCS=1",
		"audit_vs_download_speedup_* (E15) compares a full download session of a 1 MiB object against an n-leaf storage-dwell challenge-response round over the same object: the audit verifies possession by moving n challenged chunks plus O(n log m) hashes instead of the whole object (the chunk bytes are what make it a possession proof — hashes alone are precomputable from a stored tree), so it must stay faster than the download (floor 1.5x at n=4) and the margin grows with object size",
		"replication_quorum_overhead_r3 (E16) compares a journaled 64 KiB upload at R=3/quorum=2 (every ack waits for one of two follower journals to fsync the record) against the same upload acked on leader-local durability alone; the two follower fsyncs run in parallel, so the overhead is a ceiling (<=5x), not a floor — that ceiling is the whole price of surviving the loss of any single node with every acked receipt intact")

	var skipRE *regexp.Regexp
	if *regressSkip != "" {
		skipRE, err = regexp.Compile(*regressSkip)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: -regress-skip: %v\n", err)
			os.Exit(1)
		}
	}
	failed := checkRatios(rep.Ratios, minBounds, maxBounds)
	if *baseline != "" {
		failed = checkBaseline(rep, byName, *baseline, *maxRegress, skipRE) || failed
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("wrote %s (%d results)\n", *out, len(rep.Results))
	for k, v := range rep.Ratios {
		fmt.Printf("  %-34s %.2f\n", k, v)
	}
	if failed {
		os.Exit(1)
	}
}

// parseBounds parses a comma-separated "name=value,name=value" bound
// list. An empty spec yields no bounds.
func parseBounds(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	bounds := map[string]float64{}
	for _, pair := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad bound %q (want name=value)", pair)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad bound %q: %v", pair, err)
		}
		bounds[name] = f
	}
	return bounds, nil
}

// checkRatios enforces within-run floors and ceilings on the computed
// acceptance ratios. A bound naming a ratio that was not computed
// fails too — a renamed or vanished benchmark must not silently pass
// the gate.
func checkRatios(ratios, min, max map[string]float64) bool {
	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchreport: "+format+"\n", args...)
		failed = true
	}
	for name, floor := range min {
		v, ok := ratios[name]
		switch {
		case !ok:
			fail("ratio floor %s=%.2f: ratio not computed this run", name, floor)
		case v < floor:
			fail("ratio %s measured %.2f, below floor %.2f", name, v, floor)
		}
	}
	for name, ceil := range max {
		v, ok := ratios[name]
		switch {
		case !ok:
			fail("ratio ceiling %s=%.2f: ratio not computed this run", name, ceil)
		case v > ceil:
			fail("ratio %s measured %.2f, above ceiling %.2f", name, v, ceil)
		}
	}
	return failed
}

// checkBaseline compares the fresh results against a prior report and
// records the per-benchmark slowdown factors. It returns true when any
// shared family regressed past the budget. Families matching skip are
// compared and recorded but advisory: they never fail the gate — the
// escape hatch for benchmarks that measure shared-hardware behaviour
// (concurrent fsync streams on a virtual disk) rather than code.
func checkBaseline(rep *Report, byName map[string]Result, path string, maxRegress float64, skip *regexp.Regexp) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: reading baseline: %v\n", err)
		os.Exit(1)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: parsing baseline %s: %v\n", path, err)
		os.Exit(1)
	}
	rep.VsBaseline = map[string]float64{}
	failed := false
	for _, old := range base.Results {
		cur, ok := byName[old.Name]
		if !ok || old.NsPerOp <= 0 {
			continue
		}
		f := cur.NsPerOp / old.NsPerOp
		rep.VsBaseline[old.Name] = f
		status := "ok"
		if f > 1+maxRegress {
			if skip != nil && skip.MatchString(old.Name) {
				status = "slower (advisory, -regress-skip)"
			} else {
				status = "REGRESSION"
				failed = true
			}
		}
		fmt.Printf("  vs baseline %-55s %.3fx  %s\n", old.Name, f, status)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchreport: regression beyond %.0f%% against %s\n", maxRegress*100, path)
	}
	return failed
}
