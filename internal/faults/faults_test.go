package faults_test

import (
	"errors"
	"testing"

	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// okFabric is a no-op fabric: every verb succeeds instantly.
type okFabric struct{}

func (okFabric) Read(env sim.Env, local *rdma.Node, l rdma.Slice, r rdma.RemoteSlice) error {
	return nil
}
func (okFabric) Write(env sim.Env, local *rdma.Node, l rdma.Slice, r rdma.RemoteSlice) error {
	return nil
}
func (okFabric) Send(env sim.Env, local *rdma.Node, remote, qp string, payload []byte, size int64) error {
	return nil
}
func (okFabric) Recv(env sim.Env, local *rdma.Node, qp string) ([]byte, int64, error) {
	return nil, 0, nil
}

// readPattern records which of n reads fail under the schedule.
func readPattern(t *testing.T, cfg faults.Config, n int) []bool {
	t.Helper()
	var pattern []bool
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		f := faults.NewInjector(cfg).Fabric(okFabric{})
		for i := 0; i < n; i++ {
			pattern = append(pattern, f.Read(env, nil, rdma.Slice{}, rdma.RemoteSlice{}) != nil)
		}
	})
	eng.Run()
	return pattern
}

// TestSeedReplaysExactSchedule: the same seed and the same operation
// order produce the identical fault sequence — the property every
// regression test and the chaos experiment lean on.
func TestSeedReplaysExactSchedule(t *testing.T) {
	cfg := faults.Config{Seed: 42, Read: faults.Rule{Rate: 0.3}}
	a := readPattern(t, cfg, 200)
	b := readPattern(t, cfg, 200)
	var fired int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d with the same seed", i+1)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == 200 {
		t.Fatalf("rate 0.3 fired %d/200 times — schedule is degenerate", fired)
	}
	c := readPattern(t, faults.Config{Seed: 43, Read: faults.Rule{Rate: 0.3}}, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the identical 200-op schedule")
	}
}

// TestWindowRuleFiresExactOrdinals: a [From, To] window fires exactly
// on those ordinals regardless of rate randomness.
func TestWindowRuleFiresExactOrdinals(t *testing.T) {
	pattern := readPattern(t, faults.Config{Read: faults.Rule{From: 3, To: 4}}, 6)
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("op %d fired=%v, want %v", i+1, pattern[i], want[i])
		}
	}
}

// TestTornFlushPersistsHalf: a firing flush persists only the first
// half of the range and reports failure; a clean retry completes it.
func TestTornFlushPersistsHalf(t *testing.T) {
	dev := pmem.New(pmem.Config{Name: "pmem0", DataSize: 1 << 20, MetaSize: 4 << 10, Mode: pmem.Devdax})
	in := faults.NewInjector(faults.Config{Flush: faults.Rule{From: 1, To: 1}})
	flush := in.Flush(dev)
	if err := flush(0, 4096); err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("first flush = %v, want injected tear", err)
	}
	if err := flush(0, 4096); err != nil {
		t.Fatalf("second flush = %v, want clean", err)
	}
	if got := in.Injected(faults.SiteFlush); got != 1 {
		t.Fatalf("injected flush count = %d, want 1", got)
	}
}

// stubConn is an always-succeeding control connection that records
// whether it was closed.
type stubConn struct{ closed bool }

func (c *stubConn) Send(env sim.Env, m *wire.Msg) error { return nil }
func (c *stubConn) Recv(env sim.Env) (*wire.Msg, error) { return &wire.Msg{}, nil }
func (c *stubConn) Close() error                        { c.closed = true; return nil }

// TestConnDropKillsBothDirections: the firing op fails and closes the
// wrapped connection; later ops report the closed connection and the
// injected counter reaches the telemetry registry.
func TestConnDropKillsBothDirections(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		inner := &stubConn{}
		reg := telemetry.NewRegistry()
		in := faults.NewInjector(faults.Config{Conn: faults.Rule{From: 1, To: 1}, Telemetry: reg})
		c := in.Conn(inner)
		err := c.Send(env, nil)
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("dropped send = %v, want injected", err)
		}
		if !inner.closed {
			t.Fatal("drop must close the underlying connection")
		}
		if _, err := c.Recv(env); err == nil {
			t.Fatal("recv after drop must fail")
		}
		got := reg.Counter("portus_faults_injected_total", "", telemetry.L("site", faults.SiteConn)).Value()
		if got != 1 {
			t.Fatalf("conn fault counter = %d, want 1", got)
		}
	})
	eng.Run()
}
