// Package obs is the operational observability layer: a zero-dependency
// metrics registry (atomic counters, gauges, bounded fixed-bucket
// histograms) plus a leveled structured-event logger. The paper's
// dispute model only works if an operator can see what the system did —
// which sessions resolved through the TTP, how often evidence
// verification failed, where time went between NRO and NRR (§4.3–4.4)
// — so every hot subsystem (core.Server, core.SessionPool, the WAL, the
// verify cache, the transport) reports here, and the daemons expose the
// registry over HTTP via obs/obshttp.
//
// Naming convention (DESIGN.md §9): snake_case
// `<subsystem>_<what>_<unit>`, monotonic counters end in `_total`,
// histograms carry their unit (`_ns`, `_records`). A bounded label is
// encoded into the name with Labeled: `server_handler_errors_total{class="protocol"}`.
// Labels are for small fixed sets (error classes, policies) only —
// never per-transaction values, which would grow the registry without
// bound.
//
// Cost model: fetching a metric by name takes a lock and a map lookup,
// so hot paths resolve their metrics ONCE (package init or constructor)
// and then pay a single atomic add per event. The registry is always
// on, so its cost is inside every number the E17 scoreboard (bench/)
// reports.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. Reset exists only for
// the experiment harness (metrics.Counters adapter); operational
// counters are never reset.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter. Experiment-harness use only.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is a value that can go up and down (active connections, pool
// occupancy).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc and Dec move the gauge by ±1.
func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts int64 observations into fixed buckets chosen at
// creation. Memory is bounded by construction: len(bounds)+1 atomic
// slots regardless of how many observations arrive, unlike an
// append-every-sample recorder. Observations are raw int64s so the
// same type serves durations (nanoseconds) and sizes (records, bytes).
type Histogram struct {
	bounds []int64        // sorted inclusive upper bounds
	counts []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the elapsed nanoseconds since start — the usual
// call on latency histograms.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// Count returns total observations; Sum their total value.
func (h *Histogram) Count() int64 { return h.count.Load() }
func (h *Histogram) Sum() int64   { return h.sum.Load() }

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []int64 { return h.bounds }

// Standard bucket layouts.
var (
	// DurationBuckets covers 50µs..5s in nanoseconds — protocol message
	// handling spans RSA signing (hundreds of µs) through TTP round
	// trips (tens of ms) and fsync stalls.
	DurationBuckets = []int64{
		int64(50 * time.Microsecond), int64(100 * time.Microsecond),
		int64(250 * time.Microsecond), int64(500 * time.Microsecond),
		int64(time.Millisecond), int64(2500 * time.Microsecond),
		int64(5 * time.Millisecond), int64(10 * time.Millisecond),
		int64(25 * time.Millisecond), int64(50 * time.Millisecond),
		int64(100 * time.Millisecond), int64(250 * time.Millisecond),
		int64(500 * time.Millisecond), int64(time.Second),
		int64(2500 * time.Millisecond), int64(5 * time.Second),
	}
	// SizeBuckets covers counts (group-commit batch sizes, records):
	// powers of two 1..1024.
	SizeBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// Registry holds named metrics. Lookups create on first use; a name is
// permanently bound to its first kind (a second registration with the
// same name returns the existing metric; a kind conflict panics, since
// it is always a programming error caught by the first test run).
type Registry struct {
	mu       sync.RWMutex
	counts   map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts:   make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry the daemons expose.
// Library instrumentation (wal, transport, evidence) reports here so
// operational visibility needs no plumbing through every constructor;
// tests that need isolation pass a private registry where an option
// exists.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counts[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c = &Counter{}
	r.counts[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers a callback gauge: fn is invoked at snapshot time
// and its value reported under name. Callback gauges fit state that
// already lives behind its own lock (open WAL segments, archive sizes)
// — polling it at read time beats mirroring every change into a stored
// Gauge. fn must not call back into the registry. Re-registering a name
// replaces its callback (packages with process-wide instance sets
// re-register on instance churn).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gaugeFns[name]; !ok {
		r.checkFree(name, "gauge func")
	}
	r.gaugeFns[name] = fn
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (bounds must be sorted ascending; they are
// ignored when the histogram already exists).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	r.hists[name] = h
	return h
}

// checkFree panics when name is already bound to a different kind.
// Called with r.mu held.
func (r *Registry) checkFree(name, kind string) {
	if _, ok := r.counts[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a counter, wanted %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a gauge, wanted %s", name, kind))
	}
	if _, ok := r.gaugeFns[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a gauge func, wanted %s", name, kind))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a histogram, wanted %s", name, kind))
	}
}

// Labeled encodes one bounded label into a metric name:
// Labeled("server_handler_errors_total", "class", "protocol") →
// `server_handler_errors_total{class="protocol"}`. Use only for small
// fixed label sets; the registry has no cardinality guard.
func Labeled(name, label, value string) string {
	return name + "{" + label + "=\"" + value + "\"}"
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // per-bucket, last is +Inf overflow
}

// Snapshot is a point-in-time copy of a whole registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric. Values are read without a global
// freeze, so concurrent updates may straddle the copy — fine for
// monitoring, not for invariants.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: h.bounds,
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteText renders the registry as sorted `name value` lines — the
// text body of /metrics. Histograms expand to `_count`, `_sum` and
// cumulative `_le_<bound>` lines (bound in the metric's native unit).
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%s_count %d", name, h.Count))
		lines = append(lines, fmt.Sprintf("%s_sum %d", name, h.Sum))
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			lines = append(lines, fmt.Sprintf("%s_le_%d %d", name, b, cum))
		}
		lines = append(lines, fmt.Sprintf("%s_le_inf %d", name, h.Count))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the registry snapshot as indented JSON — the
// machine-readable body of /metrics?format=json.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
