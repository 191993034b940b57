package client_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// countSent tallies messages of one type on a scriptConn.
func countSent(sc *scriptConn, ty wire.Type) int {
	n := 0
	for _, m := range sc.sent {
		if m.Type == ty {
			n++
		}
	}
	return n
}

// TestClientResendsAfterBusy: a BUSY reply does not fail the request —
// the client re-sends it after the daemon's RetryAfter hint and the
// eventual DONE completes the original waiter. Virtual clock only, no
// wall-clock sleeps.
func TestClientResendsAfterBusy(t *testing.T) {
	var finished bool
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		h := startHarness(t, env, true, nil)
		placed, _ := gpu.Place(h.cl.GPU(0, 0), tinySpec("m"))
		sc := newScriptConn(env)
		sc.in.Send(env, &wire.Msg{Type: wire.TRegisterOK, Model: "m"})
		c, err := client.Register(env, sc, h.cl.Compute[0].RNode, placed)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := c.CheckpointAsync(env, 1)
		if err != nil {
			t.Fatal(err)
		}
		t0 := env.Now()
		sc.in.Send(env, &wire.Msg{
			Type: wire.TBusy, Model: "m", Iteration: 1,
			InReplyTo: wire.TDoCheckpoint, RetryAfter: 5 * time.Millisecond,
		})
		// Give the retry process room to fire in virtual time.
		env.Sleep(20 * time.Millisecond)
		if got := countSent(sc, wire.TDoCheckpoint); got != 2 {
			t.Fatalf("DO_CHECKPOINT sent %d times, want 2 (original + busy retry)", got)
		}
		resend := sc.sent[len(sc.sent)-1]
		if resend.Iteration != 1 {
			t.Fatalf("retry iteration = %d, want 1", resend.Iteration)
		}
		if got := c.BusyRetries(); got != 1 {
			t.Fatalf("BusyRetries = %d, want 1", got)
		}
		// The re-send waited at least the daemon's hint.
		if waited := env.Now() - t0; waited < 5*time.Millisecond {
			t.Fatalf("retry after %v, want >= the 5ms hint", waited)
		}
		sc.in.Send(env, &wire.Msg{Type: wire.TCheckpointDone, Model: "m", Iteration: 1})
		if err := cp.Wait(env); err != nil {
			t.Fatalf("checkpoint after busy retry: %v", err)
		}
		finished = true
	})
	eng.Run()
	if !finished {
		t.Fatal("run never completed: the busy retry lost the waiter")
	}
}

// TestClientBusyRetryBudgetExhausts: a request that keeps bouncing
// fails with an explicit error once BusyRetryMax is spent, instead of
// retrying forever.
func TestClientBusyRetryBudgetExhausts(t *testing.T) {
	var finished bool
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		h := startHarness(t, env, true, nil)
		placed, _ := gpu.Place(h.cl.GPU(0, 0), tinySpec("m"))
		sc := newScriptConn(env)
		sc.in.Send(env, &wire.Msg{Type: wire.TRegisterOK, Model: "m"})
		c, err := client.RegisterOpts(env, sc, h.cl.Compute[0].RNode, placed, client.Options{
			BusyRetryMax: 2,
			BusyBackoff:  time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := c.CheckpointAsync(env, 1)
		if err != nil {
			t.Fatal(err)
		}
		busy := &wire.Msg{Type: wire.TBusy, Model: "m", Iteration: 1, InReplyTo: wire.TDoCheckpoint}
		for i := 0; i < 3; i++ {
			sc.in.Send(env, busy)
			env.Sleep(20 * time.Millisecond)
		}
		if err := cp.Wait(env); err == nil || !strings.Contains(err.Error(), "daemon busy") {
			t.Fatalf("err = %v, want a daemon-busy exhaustion error", err)
		}
		// Original + exactly BusyRetryMax re-sends; the bounce past the
		// budget fails the waiter instead of re-sending.
		if got := countSent(sc, wire.TDoCheckpoint); got != 3 {
			t.Fatalf("DO_CHECKPOINT sent %d times, want 3", got)
		}
		finished = true
	})
	eng.Run()
	if !finished {
		t.Fatal("run never completed")
	}
}

// TestClientBackoffUnderFullDaemonQueue drives real backpressure end to
// end. Same-model overflow coalesces rather than rejecting, so the
// global queue is filled by one tenant and a second tenant's checkpoint
// is the one that bounces: the daemon answers BUSY with a retry-after
// hint, the client re-sends with capped backoff, and every checkpoint
// still commits.
func TestClientBackoffUnderFullDaemonQueue(t *testing.T) {
	var finished bool
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		cl, err := cluster.New(env, cluster.Config{
			ComputeNodes: 2, GPUsPerNode: 1,
			GPUMemBytes: 16 << 20, PMemBytes: 64 << 20, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		d, err := daemon.New(env, daemon.Config{
			PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric,
			Workers: 1, QueueCap: 1, ModelQueueCap: 1, Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		net := wire.NewSimNet()
		l, err := net.Listen(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("portusd-serve", func(env sim.Env) { d.Serve(env, l) })
		connect := func(node int, name string) (*client.Client, *gpu.PlacedModel) {
			placed, err := gpu.Place(cl.GPU(node, 0), tinySpec(name))
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial(env, "storage")
			if err != nil {
				t.Fatal(err)
			}
			c, err := client.Register(env, conn, cl.Compute[node].RNode, placed)
			if err != nil {
				t.Fatal(err)
			}
			return c, placed
		}
		cm, _ := connect(0, "m")
		cn, _ := connect(1, "n")
		// Tenant m saturates the single worker and the global queue:
		// iteration 1 runs, iteration 2 occupies the only queue slot.
		cp1, err := cm.CheckpointAsync(env, 1)
		if err != nil {
			t.Fatal(err)
		}
		cp2, err := cm.CheckpointAsync(env, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Tenant n's checkpoint finds the global queue full, is bounced
		// with BUSY, and must heal through the client's retry loop.
		cpn, err := cn.CheckpointAsync(env, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, cp := range map[string]*client.Completion{"m/1": cp1, "m/2": cp2, "n/1": cpn} {
			if err := cp.Wait(env); err != nil {
				t.Fatalf("checkpoint %s after backpressure: %v", name, err)
			}
		}
		if got := cn.BusyRetries(); got < 1 {
			t.Fatalf("BusyRetries = %d, want >= 1 (the global queue was full)", got)
		}
		if got := d.Events().Count(telemetry.EvSchedBusy); got < 1 {
			t.Fatalf("sched.busy events = %d, want >= 1", got)
		}
		for name, want := range map[string]uint64{"m": 2, "n": 1} {
			mdl, err := d.Store().Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, v, ok := mdl.LatestDone(); !ok || v.Iteration != want {
				t.Fatalf("%s latest done = %+v ok=%v, want iteration %d", name, v, ok, want)
			}
		}
		finished = true
	})
	eng.Run()
	if !finished {
		t.Fatal("run never completed: a bounced checkpoint hung")
	}
}

// sentOf lists the messages of one type a scriptConn saw, in order.
func sentOf(sc *scriptConn, ty wire.Type) []*wire.Msg {
	var out []*wire.Msg
	for _, m := range sc.sent {
		if m.Type == ty {
			out = append(out, m)
		}
	}
	return out
}

// TestResendsReplayTheStoredRequest: a request bounced by BUSY and then
// orphaned by a dropped connection reaches the daemon three times, and
// each copy must be the first send field for field — trace identity,
// pinned iteration, digest vector. A re-send that loses the digests
// silently turns a delta checkpoint into a full one; one that loses the
// iteration unpins a group restore.
func TestResendsReplayTheStoredRequest(t *testing.T) {
	for _, tc := range []struct {
		name  string
		req   wire.Type
		done  *wire.Msg
		issue func(env sim.Env, c *client.Client) error
	}{
		{
			name: "delta checkpoint", req: wire.TDoCheckpoint,
			done:  &wire.Msg{Type: wire.TCheckpointDone, Model: "m", Iteration: 7},
			issue: func(env sim.Env, c *client.Client) error { return c.CheckpointSync(env, 7) },
		},
		{
			name: "pinned restore", req: wire.TRestore,
			done: &wire.Msg{Type: wire.TRestoreDone, Model: "m", Iteration: 5},
			issue: func(env sim.Env, c *client.Client) error {
				iter, err := c.RestoreAt(env, 5)
				if err == nil && iter != 5 {
					t.Errorf("RestoreAt(5) returned iteration %d", iter)
				}
				return err
			},
		},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var finished bool
			eng := sim.NewEngine()
			eng.Go("test", func(env sim.Env) {
				h := startHarness(t, env, true, nil)
				placed, _ := gpu.Place(h.cl.GPU(0, 0), tinySpec("m"))
				sc1, sc2 := newScriptConn(env), newScriptConn(env)
				sc1.in.Send(env, &wire.Msg{Type: wire.TRegisterOK, Model: "m"})
				sc2.in.Send(env, &wire.Msg{Type: wire.TRegisterOK, Model: "m"}) // the reconnect handshake
				c, err := client.RegisterOpts(env, sc1, h.cl.Compute[0].RNode, placed, client.Options{
					DeltaBlockBytes: 64 << 10,
					Dialer:          func(sim.Env) (wire.Conn, error) { return sc2, nil },
				})
				if err != nil {
					t.Fatal(err)
				}
				var issueErr error
				returned := sim.NewSignal(env)
				env.Go("issue", func(env sim.Env) {
					issueErr = tc.issue(env, c)
					returned.Fire(env)
				})
				env.Sleep(10 * time.Millisecond)
				sc1.in.Send(env, &wire.Msg{Type: wire.TBusy, Model: "m", Iteration: tc.done.Iteration,
					InReplyTo: tc.req, RetryAfter: time.Millisecond})
				env.Sleep(10 * time.Millisecond)
				sc1.Close() // the drop: the receive loop redials onto sc2
				env.Sleep(10 * time.Millisecond)

				onFirst, onSecond := sentOf(sc1, tc.req), sentOf(sc2, tc.req)
				if len(onFirst) != 2 || len(onSecond) != 1 {
					t.Fatalf("%s sent %d times before the drop and %d after, want 2 (original + busy retry) and 1",
						tc.req, len(onFirst), len(onSecond))
				}
				first := onFirst[0]
				if first.TraceID == 0 || first.SpanID == 0 || first.Iteration != tc.done.Iteration {
					t.Fatalf("first send carries trace %d span %d iteration %d", first.TraceID, first.SpanID, first.Iteration)
				}
				if tc.req == wire.TDoCheckpoint && (len(first.Digests) == 0 || first.DeltaBlock != 64<<10) {
					t.Fatalf("first DO_CHECKPOINT carries %d digests at block %d", len(first.Digests), first.DeltaBlock)
				}
				for i, resend := range []*wire.Msg{onFirst[1], onSecond[0]} {
					if !reflect.DeepEqual(first, resend) {
						t.Fatalf("re-send %d differs from the first send:\n first  %+v\n resend %+v", i+1, first, resend)
					}
				}
				if c.BusyRetries() != 1 || c.Reconnects() != 1 {
					t.Fatalf("busy retries = %d, reconnects = %d, want 1 and 1", c.BusyRetries(), c.Reconnects())
				}

				sc2.in.Send(env, tc.done)
				returned.Wait(env)
				if issueErr != nil {
					t.Fatalf("request after busy bounce + reconnect: %v", issueErr)
				}
				finished = true
			})
			eng.Run()
			if !finished {
				t.Fatal("run never completed: the request hung across its re-sends")
			}
		})
	}
}
