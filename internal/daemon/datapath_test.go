package daemon_test

import (
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/datapath"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// fullRig wires cluster + daemon + net and registers one tiny model.
func fullRig(t *testing.T, env sim.Env, dmut func(*daemon.Config)) (*daemon.Daemon, *gpu.PlacedModel, *client.Client) {
	t.Helper()
	cl, err := cluster.New(env, cluster.Config{
		ComputeNodes: 1, GPUsPerNode: 1,
		GPUMemBytes: 8 << 20, PMemBytes: 16 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := daemon.Config{PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric}
	if dmut != nil {
		dmut(&cfg)
	}
	d, err := daemon.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := wire.NewSimNet()
	l, err := net.Listen(env, "storage")
	if err != nil {
		t.Fatal(err)
	}
	env.Go("serve", func(env sim.Env) { d.Serve(env, l) })

	placed, err := gpu.Place(cl.GPU(0, 0), model.GPT("m", 2, 32, 128, 0))
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
	return d, placed, c
}

func TestDaemonCheckpointRestoreCounts(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c := fullRig(t, env, nil)
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Restore(env); err != nil {
			t.Fatal(err)
		}
		st := d.Stats()
		if st.Registered != 1 || st.Checkpoints != 1 || st.Restores != 1 {
			t.Fatalf("stats = %+v", st)
		}
		if st.PullTime <= 0 {
			t.Fatal("pull time not recorded")
		}
		if st.BytesPulled != st.BytesPushed || st.BytesPulled != placed.Spec.TotalSize() {
			t.Fatalf("byte counters = %+v", st)
		}
	})
	eng.Run()
}

func TestDaemonAblationPathsStillCorrect(t *testing.T) {
	// The ablation datapaths (two-sided, host staging) must be slower but
	// byte-identical.
	for _, mut := range []func(*daemon.Config){
		func(c *daemon.Config) { c.Strategy = datapath.TwoSided{} },
		func(c *daemon.Config) { c.Strategy = datapath.HostStaged{} },
	} {
		mut := mut
		eng := sim.NewEngine()
		eng.Go("test", func(env sim.Env) {
			_, placed, c := fullRig(t, env, mut)
			placed.ApplyUpdate(3)
			if err := c.CheckpointSync(env, 3); err != nil {
				t.Fatal(err)
			}
			placed.ApplyUpdate(4)
			iter, err := c.Restore(env)
			if err != nil || iter != 3 {
				t.Fatalf("restore = %d, %v", iter, err)
			}
			if bad := placed.VerifyIteration(3); bad != -1 {
				t.Fatalf("tensor %d wrong under ablation datapath", bad)
			}
		})
		eng.Run()
	}
}

// chunkedRig is fullRig with a roomier cluster and a model whose
// embedding tensors exceed the minimum chunk size, so ChunkSize
// configurations genuinely split tensors.
func chunkedRig(t *testing.T, env sim.Env, dmut func(*daemon.Config)) (*daemon.Daemon, *gpu.PlacedModel, *client.Client) {
	t.Helper()
	cl, err := cluster.New(env, cluster.Config{
		ComputeNodes: 1, GPUsPerNode: 1,
		GPUMemBytes: 32 << 20, PMemBytes: 64 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := daemon.Config{PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric}
	if dmut != nil {
		dmut(&cfg)
	}
	d, err := daemon.New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := wire.NewSimNet()
	l, err := net.Listen(env, "storage")
	if err != nil {
		t.Fatal(err)
	}
	env.Go("serve", func(env sim.Env) { d.Serve(env, l) })

	placed, err := gpu.Place(cl.GPU(0, 0), model.GPT("m", 1, 256, 1024, 0))
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
	return d, placed, c
}

// TestDaemonChunkedPipelinedRoundTrip drives a materialized checkpoint
// and restore through the chunked, pipelined, multi-lane datapath and
// verifies the restored bytes.
func TestDaemonChunkedPipelinedRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c := chunkedRig(t, env, func(cfg *daemon.Config) {
			cfg.ChunkSize = 256 << 10
			cfg.PipelineDepth = 4
			cfg.Lanes = 2
		})
		placed.ApplyUpdate(5)
		if err := c.CheckpointSync(env, 5); err != nil {
			t.Fatal(err)
		}
		placed.ApplyUpdate(6) // diverge, then roll back
		iter, err := c.Restore(env)
		if err != nil || iter != 5 {
			t.Fatalf("restore = %d, %v", iter, err)
		}
		if bad := placed.VerifyIteration(5); bad != -1 {
			t.Fatalf("tensor %d wrong after chunked pipelined round trip", bad)
		}
		st := d.Stats()
		if st.PullTime <= 0 || st.FlushTime <= 0 || st.PushTime <= 0 {
			t.Fatalf("stage times not recorded: %+v", st)
		}
	})
	eng.Run()
}

// TestDaemonPipelineDepthFaster measures the same checkpoint under
// depth 1 and depth 4 (both chunked): overlapping flush with pull must
// strictly reduce virtual checkpoint latency.
func TestDaemonPipelineDepthFaster(t *testing.T) {
	run := func(depth int) time.Duration {
		var elapsed time.Duration
		eng := sim.NewEngine()
		eng.Go("test", func(env sim.Env) {
			_, placed, c := chunkedRig(t, env, func(cfg *daemon.Config) {
				cfg.ChunkSize = 256 << 10
				cfg.PipelineDepth = depth
			})
			placed.ApplyUpdate(1)
			t0 := env.Now()
			if err := c.CheckpointSync(env, 1); err != nil {
				t.Fatal(err)
			}
			elapsed = env.Now() - t0
		})
		eng.Run()
		return elapsed
	}
	d1, d4 := run(1), run(4)
	if d4 >= d1 {
		t.Fatalf("depth 4 checkpoint (%v) not faster than depth 1 (%v)", d4, d1)
	}
}

func TestDaemonConcurrentCheckpointsQueue(t *testing.T) {
	// A second checkpoint on a model with one in flight is queued (or
	// coalesced into the newer iteration), never hard-rejected: per-model
	// lanes still execute one task at a time — the paper's
	// one-worker-per-model independence (§III-D1) — but the scheduler
	// queues behind the in-flight operation instead of bouncing.
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, placed, c := fullRig(t, env, nil)
		placed.ApplyUpdate(1)
		cp, err := c.CheckpointAsync(env, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Immediately request another: both must complete.
		if err := c.CheckpointSync(env, 2); err != nil {
			t.Fatalf("second checkpoint while one in flight: %v", err)
		}
		if err := cp.Wait(env); err != nil {
			t.Fatal(err)
		}
		if st := d.Stats(); st.Errors != 0 {
			t.Fatalf("errors = %d, want 0", st.Errors)
		}
		// The newest committed version is the newer iteration.
		m, err := d.Store().Lookup("m")
		if err != nil {
			t.Fatal(err)
		}
		if _, v, ok := m.LatestDone(); !ok || v.Iteration != 2 {
			t.Fatalf("latest done = %+v ok=%v, want iteration 2", v, ok)
		}
		// After completion the model accepts further work.
		placed.ApplyUpdate(3)
		if err := c.CheckpointSync(env, 3); err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
}

// TestDaemonDuplicateInFlightBothAnswered races a second connection's
// DO_CHECKPOINT for the same model and iteration against one already in
// flight. The duplicate must park on the running (or committed) work and
// both connections receive CHECKPOINT_DONE, while the transfer executes
// once.
func TestDaemonDuplicateInFlightBothAnswered(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		cl, err := cluster.New(env, cluster.Config{
			ComputeNodes: 1, GPUsPerNode: 1,
			GPUMemBytes: 8 << 20, PMemBytes: 16 << 20, Materialized: true,
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
		placed, err := gpu.Place(cl.GPU(0, 0), model.GPT("m", 2, 32, 128, 0))
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
		cp, err := c.CheckpointAsync(env, 1)
		if err != nil {
			t.Fatal(err)
		}
		// A second connection retries the same iteration while the first
		// is in flight; sessions are keyed by model, so no re-register.
		conn2, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		if err := conn2.Send(env, &wire.Msg{
			Type: wire.TDoCheckpoint, Model: "m", Iteration: 1,
		}); err != nil {
			t.Fatal(err)
		}
		reply, err := conn2.Recv(env)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Type != wire.TCheckpointDone || reply.Iteration != 1 {
			t.Fatalf("duplicate conn reply = %+v, want CHECKPOINT_DONE iter 1", reply)
		}
		if err := cp.Wait(env); err != nil {
			t.Fatalf("original checkpoint: %v", err)
		}
		st := d.Stats()
		if st.Checkpoints != 1 {
			t.Fatalf("checkpoints = %d, want 1 (duplicate must not re-execute)", st.Checkpoints)
		}
		if st.Errors != 0 {
			t.Fatalf("errors = %d, want 0", st.Errors)
		}
		if got := reg.Counter("portus_daemon_dedup_total", "").Value(); got < 1 {
			t.Fatalf("portus_daemon_dedup_total = %d, want >= 1", got)
		}
	})
	eng.Run()
}
