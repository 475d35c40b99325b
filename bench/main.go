// Command bench is the repository's end-to-end benchmark (E17): it boots
// the real provider and TTP runtimes in-process over loopback TCP,
// drives them from closed-loop clients with seeded inputs, checks every
// output, and prints the metrics BENCHMARK.json declares. README.md in
// this directory explains the workloads, the metrics and the rules that
// keep two runs of the same code within the bounds.
//
//	bash bench/run.sh --workload upload_small --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh -aa
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"text/tabwriter"
)

// benchProcs is the GOMAXPROCS of every run. One closed-loop client
// keeps one party busy at a time, so a second P adds no throughput; what
// it adds is the runtime's idle threads spinning for work beside the one
// that has some. The builder's two vCPUs slow each other like two
// hardware threads of one core, and that made whole runs 10 to 50 %
// slower at random: ten runs of upload_small spread 23 % in p50 at the
// default and 2.3 % with one P (README, "One P"). One P also means a host
// with more cores measures the same thing.
const benchProcs = 1

// defaultSeconds fits 92 runs, their set-ups and two builds into the
// driver's 3420 seconds.
const defaultSeconds = 24

func main() { os.Exit(realMain()) }

// realMain returns the exit code, so that deferred clean-up runs.
func realMain() int {
	name := flag.String("workload", "", "workload to run (default: all, one after another)")
	seed := flag.Int64("seed", 1, "seed for object bytes, operation order, key choice and tamper choice")
	seconds := flag.Float64("seconds", defaultSeconds, "time for warm-up and measured rounds of one workload; set-up comes on top")
	trace := flag.Int("trace", 0, "1: record spans, write bench/out/trace-<workload>.json, print the per-layer metrics")
	aa := flag.Bool("aa", false, "run every workload twice, A B B A, and fail if any end-to-end metric differs by more than its bound")
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)

	var wls []*workload
	if *name == "" {
		wls = workloads()
	} else if wl := workloadNamed(*name); wl != nil {
		wls = []*workload{wl}
	} else {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *aa {
		return runAA(wls, *seed, *seconds)
	}

	out, err := outDir()
	if err != nil {
		return fail(err)
	}
	opt := runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, outDir: out}
	// A state directory of this process's own, gone when the process is:
	// on the way out, or when told to stop.
	if opt.stateRoot, err = os.MkdirTemp(stateParent(out), "tpnrbench-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(opt.stateRoot)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-stop
		os.RemoveAll(opt.stateRoot)
		os.Exit(130)
	}()

	// The exit code: 0 when every output was correct, 1 when not, 2 when
	// a run broke.
	code := 0
	for _, wl := range wls {
		res, err := runWorkload(wl, opt)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", wl.name, err))
		}
		if err := report(res, opt); err != nil {
			return fail(err)
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// outDir is bench/out, found from either the checkout's root or this
// directory. It refuses to run anywhere else, so that a stray copy of
// the benchmark cannot pass for a measurement of the repository.
func outDir() (string, error) {
	for _, c := range []struct{ marker, out string }{
		{"BENCHMARK.json", filepath.Join("bench", "out")},
		{filepath.Join("..", "BENCHMARK.json"), "out"},
	} {
		if _, err := os.Stat(c.marker); err == nil {
			return filepath.Abs(c.out)
		}
	}
	return "", fmt.Errorf("run from the repository's root or from bench/: BENCHMARK.json not found")
}

// stateParent picks where the deployments keep their journals,
// archives and blobs. Every journal fsyncs on every append and the blob
// store fsyncs every object, as the daemons do; how long a flush takes
// is the disk's weather, not the program's (on the builder's disk it
// moved upload latency between 10 and 18 ms from run to run), while how
// many flushes there are is the program's and is a metric. So the state
// goes where a flush costs nothing: the checkout when that is
// memory-backed, else /dev/shm when it has room, else the checkout
// anyway.
func stateParent(out string) string {
	if err := os.MkdirAll(out, 0o755); err != nil || fsName(out) == "tmpfs" {
		return out
	}
	const shm, room = "/dev/shm", 1 << 30
	if fsName(shm) == "tmpfs" && freeBytes(shm) >= room {
		if dir, err := os.MkdirTemp(shm, "tpnrbench-probe-"); err == nil {
			os.Remove(dir)
			return shm
		}
	}
	return out
}

// line is the last line of standard output: exactly these four keys.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine builds the result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func resultLine(res *result, trace bool) line {
	defs, values := endToEndDefs, res.EndToEnd
	if trace {
		defs, values = perLayerDefs(), res.PerLayer
	}
	l := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		l.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return l
}

// report writes the detail file, a table for people on standard error,
// and the result line on standard output.
func report(res *result, opt runOpts) error {
	l := resultLine(res, opt.trace)
	defs := endToEndDefs
	if opt.trace {
		defs = perLayerDefs()
	}
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tseed %d\t%d rounds\t%d clients\tstate on %s\n", res.Workload, res.Seed, len(res.Rounds), res.Clients, res.StateFS)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, l.Metrics[d.Name].Value, d.Unit)
	}
	if !opt.trace {
		// Per-layer timings an untraced run has anyway, as a courtesy.
		var opsS, cpu []float64
		p50 := make(map[string][]float64)
		for _, r := range res.Rounds {
			if r.Warmup {
				continue
			}
			opsS, cpu = append(opsS, r.OpsPerSec), append(cpu, r.CPUMsPerOp)
			for name, v := range r.P50Ms {
				p50[name] = append(p50[name], v)
			}
		}
		fmt.Fprintf(tw, "  (bench.ops_s)\t%.6g\t1/s\n", median(opsS))
		fmt.Fprintf(tw, "  (bench.cpu_ms_per_op)\t%.6g\tms\n", median(cpu))
		for _, name := range kindNames {
			if v := p50[name]; len(v) > 0 {
				fmt.Fprintf(tw, "  (core.%s_p50_ms)\t%.6g\tms\n", name, quiet(v))
			}
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(tw, "  FAILED\t%s\n", f)
	}
	tw.Flush()

	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	detail, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opt.outDir, "result-"+res.Workload+".json"), detail, 0o644); err != nil {
		return err
	}
	raw, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// runAA runs the workloads forwards and then backwards, each run in a
// process of its own as the driver does it (eight deployments in one
// process leave a heap and a scheduler no driver run ever sees), and
// compares the two values of every end-to-end metric with the metric's
// bound. It exits 0 when every gap is within its bound and every output
// was correct, 1 when not, 2 when a run broke.
func runAA(wls []*workload, seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	order := append([]*workload(nil), wls...)
	for i := len(wls) - 1; i >= 0; i-- {
		order = append(order, wls[i])
	}
	runs := make(map[string][]line)
	for _, wl := range order {
		cmd := exec.Command(self, "-workload", wl.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
		out, err := cmd.Output()
		// A run whose outputs were wrong exits 1 and still prints its line.
		var exit *exec.ExitError
		if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
			return fail(fmt.Errorf("%s: %w", wl.name, err))
		}
		rows := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var l line
		if err := json.Unmarshal(rows[len(rows)-1], &l); err != nil {
			return fail(fmt.Errorf("%s: result line: %w", wl.name, err))
		}
		fmt.Fprintf(os.Stderr, "%s: run %d done\n", wl.name, len(runs[wl.name])+1)
		runs[wl.name] = append(runs[wl.name], l)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tgap\tbound\t")
	bad := 0
	for _, wl := range wls {
		a, b := runs[wl.name][0], runs[wl.name][1]
		if !a.Correct || !b.Correct {
			bad++
			fmt.Fprintf(tw, "%s\tFAILED\t%d of %d\t%d of %d\t\t\t\n", wl.name, a.Failed, a.Attempted, b.Failed, b.Attempted)
		}
		for _, d := range endToEndDefs {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			lo := va
			if vb < lo {
				lo = vb
			}
			gap := ratio(va-vb, lo)
			if gap < 0 {
				gap = -gap
			}
			mark := ""
			if gap > d.Bound {
				mark = "OVER"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%.3g%%\t%s\n", wl.name, d.Name, va, vb, 100*gap, 100*d.Bound, mark)
		}
	}
	tw.Flush()
	if bad > 0 {
		return 1
	}
	return 0
}
