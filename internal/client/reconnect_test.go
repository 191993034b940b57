package client_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// scriptConn is a hand-driven control connection: the test queues
// daemon replies into in and can make Send fail on demand.
type scriptConn struct {
	env      sim.Env
	in       *sim.Mailbox[*wire.Msg]
	sent     []*wire.Msg
	failSend bool
}

func newScriptConn(env sim.Env) *scriptConn {
	return &scriptConn{env: env, in: sim.NewMailbox[*wire.Msg](env)}
}

func (c *scriptConn) Send(env sim.Env, m *wire.Msg) error {
	if c.failSend {
		return fmt.Errorf("script: send failed")
	}
	cp := *m // a snapshot: a later mutation must not rewrite what was sent
	c.sent = append(c.sent, &cp)
	return nil
}

func (c *scriptConn) Recv(env sim.Env) (*wire.Msg, error) {
	m, ok := c.in.Recv(env)
	if !ok {
		return nil, wire.ErrClosed
	}
	return m, nil
}

func (c *scriptConn) Close() error {
	if !c.in.Closed(c.env) {
		c.in.Close(c.env)
	}
	return nil
}

// TestFailedSendDoesNotLeakWaiter is the regression test for the armed-
// waiter leak: a request whose Send fails (with no reconnect dialer)
// must remove its waiter. With the leak, the stale iteration-1 waiter
// stayed oldest in the arming order and swallowed the next uncorrelated
// daemon ERROR, leaving the live request hanging forever.
func TestFailedSendDoesNotLeakWaiter(t *testing.T) {
	var errSeen, doneSeen bool
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

		sc.failSend = true
		if _, err := c.CheckpointAsync(env, 1); err == nil {
			t.Fatal("checkpoint with failing send must error without a dialer")
		}
		sc.failSend = false

		// The live request: an uncorrelated ERROR must release THIS
		// waiter, not the failed request's stale one.
		cp, err := c.CheckpointAsync(env, 2)
		if err != nil {
			t.Fatal(err)
		}
		sc.in.Send(env, &wire.Msg{Type: wire.TError, Error: "synthetic daemon error"})
		if err := cp.Wait(env); err == nil || !strings.Contains(err.Error(), "synthetic daemon error") {
			t.Fatalf("live waiter got %v, want the synthetic error", err)
		}
		errSeen = true

		// And the normal completion path still works afterwards.
		cp3, err := c.CheckpointAsync(env, 3)
		if err != nil {
			t.Fatal(err)
		}
		sc.in.Send(env, &wire.Msg{Type: wire.TCheckpointDone, Model: "m", Iteration: 3})
		if err := cp3.Wait(env); err != nil {
			t.Fatal(err)
		}
		doneSeen = true
	})
	eng.Run()
	// A leaked waiter leaves the test proc parked forever and the engine
	// abandons it silently — so assert the waits actually returned.
	if !errSeen || !doneSeen {
		t.Fatalf("waits never returned (errSeen=%v doneSeen=%v): waiter leaked", errSeen, doneSeen)
	}
}

// TestClientReconnectResumesCheckpoints: the control connection is
// dropped deterministically mid-run; the client redials, re-registers,
// re-sends the outstanding DO_CHECKPOINT, and training proceeds with no
// visible failure.
func TestClientReconnectResumesCheckpoints(t *testing.T) {
	var finished bool
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		h := startHarness(t, env, true, nil)
		reg := telemetry.NewRegistry()
		// Drop exactly the 4th client-side control-plane operation: the
		// DO_CHECKPOINT send (or the Recv awaiting its reply) mid-stream.
		inj := faults.NewInjector(faults.Config{Conn: faults.Rule{From: 4, To: 4}})
		dial := func(env sim.Env) (wire.Conn, error) {
			conn, err := h.net.Dial(env, "storage")
			if err != nil {
				return nil, err
			}
			return inj.Conn(conn), nil
		}
		placed, _ := gpu.Place(h.cl.GPU(0, 0), tinySpec("m"))
		conn, err := dial(env)
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.RegisterOpts(env, conn, h.cl.Compute[0].RNode, placed, client.Options{
			Telemetry: reg,
			Dialer:    dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(1); i <= 4; i++ {
			placed.ApplyUpdate(i)
			if err := c.CheckpointSync(env, i); err != nil {
				t.Fatalf("checkpoint %d: %v", i, err)
			}
		}
		if got := inj.Injected(faults.SiteConn); got != 1 {
			t.Fatalf("injected %d connection drops, want 1", got)
		}
		if got := c.Reconnects(); got != 1 {
			t.Fatalf("reconnects = %d, want 1", got)
		}
		placed.ApplyUpdate(99)
		iter, err := c.Restore(env)
		if err != nil || iter != 4 {
			t.Fatalf("restore after reconnect = %d, %v; want 4", iter, err)
		}
		if bad := placed.VerifyIteration(4); bad != -1 {
			t.Fatalf("tensor %d content wrong after reconnect + restore", bad)
		}
		finished = true
	})
	eng.Run()
	if !finished {
		t.Fatal("run never completed: a request hung across the reconnect")
	}
}

// TestReconnectBackoffIsCapped: against a daemon that is gone for good,
// the redial loop waits ReconnectBackoff before its second dial and
// doubles the wait per further dial up to the documented 500ms cap —
// never past it — before failing the outstanding request.
func TestReconnectBackoffIsCapped(t *testing.T) {
	var dials []time.Duration
	var failed bool
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		h := startHarness(t, env, true, nil)
		placed, _ := gpu.Place(h.cl.GPU(0, 0), tinySpec("m"))
		sc := newScriptConn(env)
		sc.in.Send(env, &wire.Msg{Type: wire.TRegisterOK, Model: "m"})
		c, err := client.RegisterOpts(env, sc, h.cl.Compute[0].RNode, placed, client.Options{
			Dialer: func(env sim.Env) (wire.Conn, error) {
				dials = append(dials, env.Now())
				return h.net.Dial(env, "no-daemon-listens-here")
			},
			ReconnectMax:     4,
			ReconnectBackoff: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := c.CheckpointAsync(env, 1)
		if err != nil {
			t.Fatal(err)
		}
		sc.Close() // the daemon dies with the request outstanding
		if err := cp.Wait(env); err == nil {
			t.Fatal("checkpoint succeeded against a dead daemon")
		}
		failed = true
	})
	eng.Run()
	if !failed {
		t.Fatal("the outstanding request never failed: the redial loop hung")
	}
	want := []time.Duration{300 * time.Millisecond, 500 * time.Millisecond, 500 * time.Millisecond}
	if len(dials) != len(want)+1 {
		t.Fatalf("dialed %d times, want %d", len(dials), len(want)+1)
	}
	for i, w := range want {
		if gap := dials[i+1] - dials[i]; gap != w {
			t.Fatalf("gap before dial %d = %v, want %v (all dials at %v)", i+2, gap, w, dials)
		}
	}
}

// TestDaemonRepeatedCheckpointDeduplicated: re-sending a DO_CHECKPOINT
// for an iteration that already committed (the client's retry path
// after a reconnect) is answered from the index, not re-executed.
func TestDaemonRepeatedCheckpointDeduplicated(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		h := startHarness(t, env, true, nil)
		placed, _ := gpu.Place(h.cl.GPU(0, 0), tinySpec("m"))
		c := h.connect(t, env, 0, placed)
		placed.ApplyUpdate(7)
		for i := 0; i < 2; i++ {
			if err := c.CheckpointSync(env, 7); err != nil {
				t.Fatalf("checkpoint send %d: %v", i, err)
			}
		}
		if st := h.d.Stats(); st.Checkpoints != 1 {
			t.Fatalf("daemon executed %d checkpoints, want 1 (second deduplicated)", st.Checkpoints)
		}
		dedups := h.d.Telemetry().Counter("portus_daemon_dedup_total", "").Value()
		if dedups != 1 {
			t.Fatalf("portus_daemon_dedup_total = %d, want 1", dedups)
		}
	})
	eng.Run()
}

// TestDaemonRestartEndToEndRecovery: after a daemon crash, a new daemon
// over the same PMem namespace rebuilds the model map from the three-
// level index, accepts re-registration, restores the newest complete
// version, and keeps taking checkpoints.
func TestDaemonRestartEndToEndRecovery(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		h := startHarness(t, env, true, nil)
		placed, _ := gpu.Place(h.cl.GPU(0, 0), tinySpec("m"))
		c := h.connect(t, env, 0, placed)
		for i := uint64(4); i <= 5; i++ {
			placed.ApplyUpdate(i)
			if err := c.CheckpointSync(env, i); err != nil {
				t.Fatal(err)
			}
		}

		// The daemon "crashes": a fresh daemon instance mounts the same
		// namespace and serves on a new address.
		d2, err := daemon.New(env, daemon.Config{
			PMem:   h.cl.Storage[0].PMem,
			RNode:  h.cl.Storage[0].RNode,
			Fabric: h.cl.Fabric,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := d2.Store().Lookup("m")
		if err != nil {
			t.Fatalf("restarted daemon lost the model: %v", err)
		}
		if _, v, ok := m.LatestDone(); !ok || v.Iteration != 5 {
			t.Fatalf("newest complete version after restart = %+v ok=%v, want iteration 5", v, ok)
		}
		l2, err := h.net.Listen(env, "storage-restarted")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("portusd-restarted", func(env sim.Env) { d2.Serve(env, l2) })

		// The training job restarts too: empty weights, re-register,
		// restore, continue checkpointing against the new daemon.
		placed2, _ := gpu.Place(h.cl.GPU(0, 1), tinySpec("m"))
		conn, err := h.net.Dial(env, "storage-restarted")
		if err != nil {
			t.Fatal(err)
		}
		c2, err := client.Register(env, conn, h.cl.Compute[0].RNode, placed2)
		if err != nil {
			t.Fatalf("re-registration after daemon restart: %v", err)
		}
		iter, err := c2.Restore(env)
		if err != nil || iter != 5 {
			t.Fatalf("restore after restart = %d, %v; want 5", iter, err)
		}
		if bad := placed2.VerifyIteration(5); bad != -1 {
			t.Fatalf("tensor %d content wrong after restart restore", bad)
		}
		placed2.ApplyUpdate(6)
		if err := c2.CheckpointSync(env, 6); err != nil {
			t.Fatalf("checkpoint on restarted daemon: %v", err)
		}
		if _, v, ok := m.LatestDone(); !ok || v.Iteration != 6 {
			t.Fatalf("latest after post-restart checkpoint = %+v, want 6", v)
		}
	})
	eng.Run()
}

// TestRequestDeadlineFailsUnansweredRequest: with RequestTimeout set, a
// request whose reply never arrives fails with a deadline error instead
// of hanging training forever.
func TestRequestDeadlineFailsUnansweredRequest(t *testing.T) {
	var deadlineSeen bool
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		h := startHarness(t, env, true, nil)
		placed, _ := gpu.Place(h.cl.GPU(0, 0), tinySpec("m"))
		sc := newScriptConn(env)
		sc.in.Send(env, &wire.Msg{Type: wire.TRegisterOK, Model: "m"})
		c, err := client.RegisterOpts(env, sc, h.cl.Compute[0].RNode, placed, client.Options{
			RequestTimeout: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := c.CheckpointAsync(env, 1) // no reply is ever queued
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.Wait(env); err == nil || !strings.Contains(err.Error(), "deadline") {
			t.Fatalf("err = %v, want a deadline error", err)
		}
		deadlineSeen = true
	})
	eng.Run()
	if !deadlineSeen {
		t.Fatal("deadline never fired: request hung")
	}
}
