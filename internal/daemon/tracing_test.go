package daemon_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// settleTraces lets the client's fire-and-forget trace report cross the
// simulated control plane and stitch into the daemon's ring.
func settleTraces(env sim.Env) { env.Sleep(20 * time.Millisecond) }

// TestStitchedTraceSumsToEndToEnd extends the PR-1 acceptance check
// across the wire: after the clients' trace reports land, the ring
// holds ONE stitched trace per checkpoint whose root is the client's
// span tree, whose client-side spans tile the end-to-end latency
// exactly, and whose daemon-side tree hangs under the await span.
func TestStitchedTraceSumsToEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, _, c := startTracedDaemon(t, env)
		const ckpts = 4
		for i := uint64(1); i <= ckpts; i++ {
			if err := c.CheckpointSync(env, i); err != nil {
				t.Fatal(err)
			}
		}
		settleTraces(env)

		snap := d.Traces().Snapshot()
		if len(snap) != ckpts {
			t.Fatalf("trace ring holds %d traces, want %d (stitching must replace, not append)", len(snap), ckpts)
		}
		for _, tr := range snap {
			if !tr.Stitched {
				t.Fatalf("iteration %d: trace not stitched after the client report", tr.Iteration)
			}
			if tr.ID == 0 {
				t.Fatal("stitched trace carries no client-minted TraceID")
			}
			if tr.Kind != "checkpoint" || tr.Model != "traced" {
				t.Fatalf("stitched identity = kind=%q model=%q iter=%d", tr.Kind, tr.Model, tr.Iteration)
			}
			if tr.Root.Name != "client:checkpoint" {
				t.Fatalf("stitched root = %q, want the client root", tr.Root.Name)
			}
			// Client-side spans tile the root: the top-level spans (send +
			// await) sum to the end-to-end latency exactly.
			var sum time.Duration
			for _, sp := range tr.Root.Children {
				sum += sp.Dur()
			}
			if sum != tr.Duration || tr.Duration <= 0 {
				t.Fatalf("iteration %d: client span sum %v != end-to-end %v", tr.Iteration, sum, tr.Duration)
			}
		}

		// Newest first: the last checkpoint's tree in detail.
		tr := snap[0]
		if tr.Iteration != ckpts {
			t.Fatalf("newest trace is iteration %d, want %d", tr.Iteration, ckpts)
		}
		send, await := tr.Root.Find("send"), tr.Root.Find("await")
		if send == nil || await == nil {
			t.Fatal("stitched trace missing client send/await spans")
		}

		// The daemon's tree grafts under await, and its own stages still
		// sum to the daemon-side span exactly.
		var dmn *telemetry.Span
		for _, sp := range await.Children {
			if sp.Name == "checkpoint" {
				dmn = sp
			}
		}
		if dmn == nil {
			t.Fatalf("daemon tree not grafted under await: children %+v", await.Children)
		}
		var sum time.Duration
		for _, name := range []string{"enqueue-wait", "pull", "flush", "commit"} {
			sp := dmn.Find(name)
			if sp == nil {
				t.Fatalf("daemon stage %q missing from stitched tree", name)
			}
			sum += sp.Dur()
		}
		if sum != dmn.Dur() {
			t.Fatalf("daemon stage sum %v != daemon span %v", sum, dmn.Dur())
		}

		// The waterfall renders the whole stitched tree.
		var buf bytes.Buffer
		telemetry.WriteWaterfall(&buf, tr)
		out := buf.String()
		for _, want := range []string{"client:checkpoint", "send", "await", "enqueue-wait", "flush", "trace=" + tr.ID.String()} {
			if !strings.Contains(out, want) {
				t.Fatalf("waterfall missing %q:\n%s", want, out)
			}
		}
	})
	eng.Run()
}

// TestUntracedClientStillServed is the compatibility check: a raw
// request with a zero TraceID (an old client that predates trace
// propagation) must be served normally and produce an ordinary,
// unstitched daemon trace.
func TestUntracedClientStillServed(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, _, c := startTracedDaemon(t, env)
		// Reach the daemon over a second raw connection, using the
		// session the instrumented client registered.
		net := simNetOf(t, env, d)
		conn, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(env, &wire.Msg{Type: wire.TDoCheckpoint, Model: "traced", Iteration: 9}); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv(env)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.TCheckpointDone || resp.Iteration != 9 {
			t.Fatalf("untraced checkpoint response = %+v", resp)
		}
		settleTraces(env)
		snap := d.Traces().Snapshot()
		if len(snap) != 1 {
			t.Fatalf("trace ring holds %d traces, want 1", len(snap))
		}
		tr := snap[0]
		if tr.ID != 0 || tr.Stitched {
			t.Fatalf("untraced request produced id=%s stitched=%v, want zero/unstitched", tr.ID, tr.Stitched)
		}
		if tr.Err != "" || tr.Root.Find("pull") == nil {
			t.Fatalf("untraced trace malformed: %+v", tr)
		}
		_ = c
	})
	eng.Run()
}

// TestTraceReportForEvictedTraceIsIgnored: a report whose trace has
// already left the ring (or never existed) must not error the
// connection or disturb other traffic.
func TestTraceReportForUnknownTraceIsIgnored(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, _, c := startTracedDaemon(t, env)
		net := simNetOf(t, env, d)
		conn, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		// Unknown id, garbage payload: fire-and-forget, no reply.
		if err := conn.Send(env, &wire.Msg{Type: wire.TTraceReport, Model: "traced", TraceID: 0xfeed, Payload: []byte("{not json")}); err != nil {
			t.Fatal(err)
		}
		// The connection still serves ordinary requests afterwards.
		if err := conn.Send(env, &wire.Msg{Type: wire.TList}); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv(env)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.TListResp {
			t.Fatalf("resp after trace report = %+v, want LIST_RESP (report must not generate a reply)", resp)
		}
		_ = c
	})
	eng.Run()
}

// simNetOf serves an already-running daemon on a second control-plane
// listener, so tests can dial raw wire connections alongside the
// instrumented client startTracedDaemon registered.
func simNetOf(t *testing.T, env sim.Env, d *daemon.Daemon) *wire.SimNet {
	t.Helper()
	net := wire.NewSimNet()
	l, err := net.Listen(env, "storage")
	if err != nil {
		t.Fatal(err)
	}
	env.Go("serve-raw", func(env sim.Env) { d.Serve(env, l) })
	return net
}

// TestWatchdogCapturesSlowCheckpoint pushes a transfer past the
// watchdog budget with an injected fabric delay (internal/faults) and
// checks the full evidence chain: portus_slow_transfers_total
// increments, the incident lands with its trace, and the flight
// recorder holds both the injected-fault events and the watchdog
// marker.
func TestWatchdogCapturesSlowCheckpoint(t *testing.T) {
	// Pass 1 (no faults, no budget): measure the baseline checkpoint
	// duration under the deterministic sim clock.
	var baseline time.Duration
	eng := sim.NewEngine()
	eng.Go("baseline", func(env sim.Env) {
		d, _, c := startTracedDaemon(t, env)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		baseline = d.Traces().Snapshot()[0].Duration
	})
	eng.Run()
	if baseline <= 0 {
		t.Fatalf("baseline duration = %v", baseline)
	}

	// Pass 2: budget just above baseline, every verb delayed enough to
	// blow well past it.
	eng = sim.NewEngine()
	eng.Go("slow", func(env sim.Env) {
		cl, err := cluster.New(env, cluster.Config{
			ComputeNodes: 1, GPUsPerNode: 1,
			GPUMemBytes: 16 << 20, PMemBytes: 32 << 20, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		// Every data-plane verb stalls for a full baseline, so one
		// checkpoint overshoots the budget by construction.
		inj := faults.NewInjector(faults.Config{
			Delay: faults.Rule{Rate: 1}, DelayBy: baseline,
		})
		d, err := daemon.New(env, daemon.Config{
			PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode,
			Fabric:     inj.Fabric(cl.Fabric),
			Telemetry:  reg,
			SlowBudget: baseline + baseline/4,
		})
		if err != nil {
			t.Fatal(err)
		}
		net := wire.NewSimNet()
		l, err := net.Listen(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("serve", func(env sim.Env) { d.Serve(env, l) })

		spec := model.GPT("traced", 2, 64, 512, 10*time.Millisecond)
		placed, err := gpu.Place(cl.GPU(0, 0), spec)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Register(env, conn, cl.Compute[0].RNode, placed)
		if err != nil {
			t.Fatal(err)
		}
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		settleTraces(env)

		if got := countSlow(reg); got != 1 {
			t.Fatalf("portus_slow_transfers_total = %v, want 1", got)
		}
		incidents := d.Watchdog().Incidents()
		if len(incidents) != 1 {
			t.Fatalf("incidents = %d, want 1", len(incidents))
		}
		inc := incidents[0]
		if inc.Trace == nil || inc.Trace.Kind != "checkpoint" {
			t.Fatalf("incident trace = %+v", inc.Trace)
		}
		if inc.Budget != baseline+baseline/4 {
			t.Fatalf("incident budget = %v, want %v", inc.Budget, baseline+baseline/4)
		}
		var sawWatchdog bool
		for _, ev := range d.Events().Snapshot() {
			if ev.Kind == telemetry.EvWatchdogSlow {
				sawWatchdog = true
			}
		}
		if !sawWatchdog {
			t.Fatal("flight recorder missing the watchdog.slow marker")
		}
	})
	eng.Run()
}

func countSlow(reg *telemetry.Registry) float64 {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	samples, err := telemetry.ParseText(&buf)
	if err != nil {
		return -1
	}
	for _, s := range samples {
		if s.Name == "portus_slow_transfers_total" {
			return s.Value
		}
	}
	return -1
}
