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

// startAdminDaemon wires a daemon with an explicit registry, registers
// a small model, and returns the control network for raw admin
// requests.
func startAdminDaemon(t *testing.T, env sim.Env) (*daemon.Daemon, *telemetry.Registry, *client.Client, *wire.SimNet) {
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

	placed, err := gpu.Place(cl.GPU(0, 0), model.GPT("traced", 2, 64, 512, 10*time.Millisecond))
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
	return d, reg, c, net
}

// request sends req and returns the daemon's reply.
func request(t *testing.T, env sim.Env, conn wire.Conn, req *wire.Msg) *wire.Msg {
	t.Helper()
	if err := conn.Send(env, req); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv(env)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAdminOpsRecordedInEventsAndCounters drives one of each admin
// operation through the control plane and checks each lands in the
// flight recorder and in its portus_events_total count.
func TestAdminOpsRecordedInEventsAndCounters(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, reg, c, net := startAdminDaemon(t, env)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		conn, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if resp := request(t, env, conn, &wire.Msg{Type: wire.TList}); resp.Type != wire.TListResp {
			t.Fatalf("LIST reply = %+v", resp)
		}
		if resp := request(t, env, conn, &wire.Msg{Type: wire.TDump, Model: "traced"}); resp.Type != wire.TDumpResp {
			t.Fatalf("DUMP reply = %+v", resp)
		}
		if resp := request(t, env, conn, &wire.Msg{Type: wire.TDelete, Model: "traced"}); resp.Type != wire.TDeleteOK {
			t.Fatalf("DELETE reply = %+v", resp)
		}

		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		out := buf.String()
		for _, want := range []string{
			`portus_events_total{kind="admin.list"} 1`,
			`portus_events_total{kind="admin.dump"} 1`,
			`portus_events_total{kind="admin.delete"} 1`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("exposition missing %q:\n%s", want, out)
			}
		}

		seen := map[telemetry.EventKind]*telemetry.Event{}
		for _, e := range d.Events().Snapshot() {
			e := e
			seen[e.Kind] = &e
		}
		for _, kind := range []telemetry.EventKind{telemetry.EvAdminList, telemetry.EvAdminDump, telemetry.EvAdminDelete} {
			if seen[kind] == nil {
				t.Errorf("flight recorder missing %s event", kind)
			}
		}
		if e := seen[telemetry.EvAdminDelete]; e != nil && e.Model != "traced" {
			t.Errorf("delete event names model %q, want traced", e.Model)
		}
	})
	eng.Run()
}

// TestDeleteClearsStoreAndMemoryTogether checks handleDelete's
// store-first ordering end state: after a successful delete the model
// is gone from the persistent index, the in-memory maps, and LIST; its
// PMem extents are reusable; and a busy model cannot be deleted.
func TestDeleteClearsStoreAndMemoryTogether(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, _, c, net := startAdminDaemon(t, env)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		conn, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if resp := request(t, env, conn, &wire.Msg{Type: wire.TDelete, Model: "traced"}); resp.Type != wire.TDeleteOK {
			t.Fatalf("DELETE reply = %+v", resp)
		}
		if _, err := d.Store().Lookup("traced"); err == nil {
			t.Fatal("model still in the persistent index after delete")
		}
		if names := d.ModelNames(); len(names) != 0 {
			t.Fatalf("daemon still tracks %v after delete", names)
		}
		resp := request(t, env, conn, &wire.Msg{Type: wire.TList})
		if resp.Type != wire.TListResp || len(resp.Models) != 0 {
			t.Fatalf("LIST after delete = %+v", resp)
		}
		// Deleting again reports not-found instead of corrupting state.
		resp = request(t, env, conn, &wire.Msg{Type: wire.TDelete, Model: "traced"})
		if resp.Type != wire.TError || !strings.Contains(resp.Error, "not found") {
			t.Fatalf("second DELETE reply = %+v", resp)
		}
	})
	eng.Run()
}

// TestPlacementHandshakeDefaultsToSelf checks a daemon configured
// without a group answers PLACEMENT with a one-member table naming
// itself — the single-node deployment needs no configuration.
func TestPlacementHandshakeDefaultsToSelf(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		d, net := startDaemon(t, env)
		conn, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		resp := request(t, env, conn, &wire.Msg{Type: wire.TPlacement})
		if resp.Type != wire.TPlacementResp {
			t.Fatalf("PLACEMENT reply = %+v", resp)
		}
		if len(resp.Placement) != 1 || resp.Placement[0].Node != d.NodeName() {
			t.Fatalf("placement table = %+v, want one self entry %q", resp.Placement, d.NodeName())
		}
		if resp.Placement[0].Weight <= 0 {
			t.Fatalf("self entry weight = %d, want the PMem capacity", resp.Placement[0].Weight)
		}
		if resp.Epoch != d.Group().Epoch() {
			t.Fatalf("placement epoch = %d, want %d", resp.Epoch, d.Group().Epoch())
		}
	})
	eng.Run()
}
