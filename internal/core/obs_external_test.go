package core_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestPoolBackoffCappedUnderRetries drives a real pool whose dialer
// always fails transiently: with Backoff far above MaxBackoff the cap
// must bound the total retry wait (the old uncapped doubling would have
// slept the full hour-scale sequence).
func TestPoolBackoffCappedUnderRetries(t *testing.T) {
	d := newDeploy(t, time.Second)
	dial := func(ctx context.Context) (transport.Conn, error) {
		return nil, errors.New("dial: connection refused") // transient
	}
	pool := core.NewSessionPool(d.Client, dial,
		core.PoolRetries(4),
		core.PoolBackoff(time.Hour), // ~an hour per retry if uncapped
		core.PoolMaxBackoff(20*time.Millisecond),
		core.PoolBackoffSeed(1),
	)
	defer pool.Close()

	start := time.Now()
	_, err := pool.Upload(context.Background(), "txn-backoff", "k", []byte("d"))
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	// 4 retries × at most 30ms jittered delay, plus slack for slow CI.
	if elapsed > 2*time.Second {
		t.Fatalf("retries took %v; MaxBackoff cap not applied", elapsed)
	}
}

// TestPoolRetryMetrics checks the pool reports retries and idle reuse
// through its registry.
func TestPoolRetryMetrics(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	reg := obs.NewRegistry()
	fails := 2
	dial := func(ctx context.Context) (transport.Conn, error) {
		if fails > 0 {
			fails--
			return nil, errors.New("flap")
		}
		return d.DialProvider()
	}
	pool := core.NewSessionPool(d.Client, dial,
		core.PoolRetries(5),
		core.PoolBackoff(time.Millisecond),
		core.PoolBackoffSeed(1),
		core.PoolRegistry(reg),
	)
	defer pool.Close()

	if _, err := pool.Upload(context.Background(), "txn-retry-met", "k", []byte("d")); err != nil {
		t.Fatalf("upload: %v", err)
	}
	if got := reg.Counter("pool_retries_total").Value(); got != 2 {
		t.Errorf("pool_retries_total = %d, want 2", got)
	}
	// Second op on the warm pool must reuse the idle connection.
	if _, err := pool.Download(context.Background(), "txn-retry-met-2", "k", "txn-retry-met"); err != nil {
		t.Fatalf("download: %v", err)
	}
	if got := reg.Counter("pool_idle_hits_total").Value(); got < 1 {
		t.Errorf("pool_idle_hits_total = %d, want >= 1", got)
	}
	if got := reg.Counter("pool_idle_misses_total").Value(); got < 1 {
		t.Errorf("pool_idle_misses_total = %d, want >= 1", got)
	}
}

// errHandler fails every message with a fixed error (or panics).
type errHandler struct {
	err     error
	doPanic bool
}

func (h errHandler) Handle(raw []byte) ([]byte, error) {
	if h.doPanic {
		panic("handler exploded")
	}
	return nil, h.err
}

// waitCounter polls a counter until it reaches want or the deadline
// passes (the server records errors asynchronously to the test).
func waitCounter(t *testing.T, c *obs.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Value() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter stuck at %d, want >= %d", c.Value(), want)
}

// TestServerCountsHandlerErrors is the regression test for the
// swallowed handler error: an erroring handler must increment
// server_handler_errors_total under the right class and emit a
// structured handler_error event. Before the fix the error vanished
// (`reply, _ := s.handleOne(raw)`).
func TestServerCountsHandlerErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		h     errHandler
		class string
	}{
		{"peer_rejected", errHandler{err: core.ErrPeerRejected}, "peer_rejected"},
		{"integrity", errHandler{err: core.ErrIntegrity}, "integrity"},
		{"other", errHandler{err: errors.New("disk full")}, "other"},
		{"panic", errHandler{doPanic: true}, "panic"},
		{"oversized", errHandler{err: errors.New(strings.Repeat("x", 1<<20))}, "other"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			var logBuf bytes.Buffer
			srv := core.NewServer(tc.h,
				core.ServerRegistry(reg),
				core.ServerLogger(obs.NewLogger(&logBuf, obs.LevelDebug)),
			)
			net := transport.NewNetwork()
			l, err := net.Listen("stub")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(context.Background(), l)

			conn, err := net.Dial("stub")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.Send([]byte("trigger")); err != nil {
				t.Fatal(err)
			}

			classed := reg.Counter(obs.Labeled("server_handler_errors_total", "class", tc.class))
			waitCounter(t, classed, 1)
			waitCounter(t, reg.Counter("server_handler_errors_total"), 1)
			waitCounter(t, reg.Counter("server_msgs_total"), 1)
			if tc.class == "panic" {
				waitCounter(t, reg.Counter("server_panics_total"), 1)
			}

			// Shutdown drains the connection goroutines, so reading the
			// log buffer afterwards cannot race the logger.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			logged := logBuf.String()
			if !strings.Contains(logged, "event=handler_error") {
				t.Errorf("no handler_error event logged:\n%s", logged)
			}
			if !strings.Contains(logged, `class=`+tc.class) {
				t.Errorf("handler_error event missing class=%s:\n%s", tc.class, logged)
			}
			if len(logged) > 1024 {
				t.Errorf("one handler error logged %d bytes, want <= 1024", len(logged))
			}
		})
	}
}

// TestServerLatencyAndActiveConnMetrics covers the remaining server
// gauges on a healthy deployment: handled-message counter, latency
// histogram population, and the active-connection gauge returning to
// zero after the client disconnects.
func TestServerObsOnDeployment(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	conn := mustDial(t, d)
	if _, err := d.Client.Upload(context.Background(), conn, "txn-obs", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	snap := obs.Default().Snapshot()
	if snap.Counters["server_msgs_total"] == 0 {
		t.Error("server_msgs_total not incremented on the default registry")
	}
	h, ok := snap.Histograms["server_handle_latency_ns"]
	if !ok || h.Count == 0 {
		t.Error("server_handle_latency_ns histogram empty")
	}
}
