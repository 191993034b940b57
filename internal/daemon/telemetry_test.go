package daemon_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// startTracedDaemon wires a daemon with an explicit registry on a tiny
// cluster and registers a small model through the real control plane.
func startTracedDaemon(t *testing.T, env sim.Env) (*daemon.Daemon, *telemetry.Registry, *client.Client) {
	t.Helper()
	cl, err := cluster.New(env, cluster.Config{
		ComputeNodes: 1, GPUsPerNode: 1,
		GPUMemBytes: 16 << 20, PMemBytes: 32 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	d, err := daemon.New(env, daemon.Config{
		PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric,
		Telemetry: reg,
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
	return d, reg, c
}

// TestCheckpointSpanTreeSumsToEndToEnd is the acceptance check: one
// checkpoint under the simulated clock must produce a span tree with
// enqueue-wait, per-tensor pull, flush, and commit stages whose
// durations sum exactly to the trace's end-to-end latency.
func TestCheckpointSpanTreeSumsToEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, _, c := startTracedDaemon(t, env)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		snap := d.Traces().Snapshot()
		if len(snap) != 1 {
			t.Fatalf("trace ring holds %d traces, want 1", len(snap))
		}
		tr := snap[0]
		if tr.Kind != "checkpoint" || tr.Model != "traced" || tr.Iteration != 1 {
			t.Fatalf("trace identity = %+v", tr)
		}
		if tr.Err != "" {
			t.Fatalf("trace error = %q", tr.Err)
		}
		if tr.Bytes != c.Model().Spec.TotalSize() {
			t.Fatalf("trace bytes = %d, want %d", tr.Bytes, c.Model().Spec.TotalSize())
		}

		var sum time.Duration
		for _, name := range []string{"enqueue-wait", "pull", "flush", "commit"} {
			sp := tr.Root.Find(name)
			if sp == nil {
				t.Fatalf("span %q missing from trace", name)
			}
			sum += sp.Dur()
		}
		if tr.Duration <= 0 {
			t.Fatal("trace duration must be positive under the sim clock")
		}
		// Stages are contiguous: under virtual time they sum exactly.
		if sum != tr.Duration {
			t.Fatalf("stage sum %v != end-to-end %v", sum, tr.Duration)
		}

		pull := tr.Root.Find("pull")
		if len(pull.Children) != len(c.Model().Spec.Tensors) {
			t.Fatalf("pull has %d per-tensor spans, want %d", len(pull.Children), len(c.Model().Spec.Tensors))
		}
		for _, sp := range pull.Children {
			if !strings.HasPrefix(sp.Name, "pull:") || sp.Dur() <= 0 || sp.Attrs["bytes"] == "" {
				t.Fatalf("per-tensor span malformed: %+v", sp)
			}
		}
	})
	eng.Run()
}

func TestRestoreTraceAndPushTime(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, _, c := startTracedDaemon(t, env)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Restore(env); err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		if st.PushTime <= 0 {
			t.Fatalf("Stats.PushTime = %v, want > 0 after a restore", st.PushTime)
		}
		if st.QueueDepth != 0 {
			t.Fatalf("Stats.QueueDepth = %d, want 0 when idle", st.QueueDepth)
		}
		if st.Errors != 0 {
			t.Fatalf("Stats.Errors = %d, want 0", st.Errors)
		}
		snap := d.Traces().Snapshot()
		if len(snap) != 2 || snap[0].Kind != "restore" || snap[1].Kind != "checkpoint" {
			t.Fatalf("trace ring order: %d traces, kinds %v", len(snap), kinds(snap))
		}
		if snap[0].Root.Find("push") == nil {
			t.Fatal("restore trace missing push span")
		}
	})
	eng.Run()
}

func kinds(traces []*telemetry.Trace) []string {
	out := make([]string, len(traces))
	for i, tr := range traces {
		out[i] = tr.Kind
	}
	return out
}

func TestDaemonErrorsCountedInStatsAndRegistry(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, reg, c := startTracedDaemon(t, env)
		// Restore before any checkpoint exists is a client-visible error.
		if _, err := c.Restore(env); err == nil {
			t.Fatal("expected restore error with no complete version")
		}
		if st := d.Stats(); st.Errors != 1 {
			t.Fatalf("Stats.Errors = %d, want 1", st.Errors)
		}
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		if !strings.Contains(buf.String(), "portus_daemon_errors_total 1") {
			t.Fatalf("registry missing error count:\n%s", buf.String())
		}
	})
	eng.Run()
}

func TestDaemonMetricsExposition(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		_, reg, c := startTracedDaemon(t, env)
		for i := uint64(1); i <= 3; i++ {
			if err := c.CheckpointSync(env, i); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		out := buf.String()
		for _, want := range []string{
			"portus_daemon_checkpoints_total 3",
			"portus_daemon_registered_total 1",
			"portus_daemon_queue_depth 0",
			"portus_pmem_flush_ops_total",
			"portus_daemon_pull_seconds_total",
			`portus_rdma_ops_total{fabric="data",op="read"}`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("exposition missing %q", want)
			}
		}
		samples, err := telemetry.ParseText(strings.NewReader(out))
		if err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		p99, ok := telemetry.HistogramQuantile(samples, "portus_checkpoint_seconds", 0.99)
		if !ok || p99 <= 0 {
			t.Fatalf("p99 checkpoint latency = %v ok=%v, want positive", p99, ok)
		}
	})
	eng.Run()
}
