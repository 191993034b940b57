package faults_test

import (
	"bytes"
	"errors"
	"hash/crc32"
	"slices"
	"testing"

	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// okFabric is a no-op fabric: every op succeeds instantly. It records
// the ops it was handed.
type okFabric struct {
	posted []rdma.Op
}

func (f *okFabric) PostList(env sim.Env, local *rdma.Node, write bool, ops []rdma.Op, done func(i int, err error)) {
	f.posted = append(f.posted, ops...)
	for i := range ops {
		done(i, nil)
	}
}

// TestFabricForwardsListPosting: each op takes its fault decision
// before the post; a faulted op completes with the injected error in
// its place in the list and is never handed to the wrapped fabric,
// which gets the other ops as one list.
func TestFabricForwardsListPosting(t *testing.T) {
	in := faults.NewInjector(faults.Config{Read: faults.Rule{From: 2, To: 3}})
	inner := &okFabric{}
	p := in.Fabric(inner)
	ops := make([]rdma.Op, 5)
	for i := range ops {
		ops[i].L.Off = int64(i)
	}
	var order []int
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		p.PostList(env, nil, false, ops, func(i int, err error) {
			order = append(order, i)
			if faulted := i == 1 || i == 2; faulted != errors.Is(err, faults.ErrInjected) {
				t.Errorf("op %d: err = %v", i, err)
			}
		})
	})
	eng.Run()
	if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("completions in order %v, want list order", order)
	}
	var posted []int64
	for _, o := range inner.posted {
		posted = append(posted, o.L.Off)
	}
	if !slices.Equal(posted, []int64{0, 3, 4}) {
		t.Fatalf("posted ops %v, want 0, 3 and 4 only", posted)
	}
}

// readPattern records which of n reads fail under the schedule.
func readPattern(t *testing.T, cfg faults.Config, n int) []bool {
	t.Helper()
	var pattern []bool
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		f := faults.NewInjector(cfg).Fabric(&okFabric{})
		f.PostList(env, nil, false, make([]rdma.Op, n), func(_ int, err error) {
			pattern = append(pattern, err != nil)
		})
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
// half of the range, reports failure and leaves the running CRC alone;
// a clean retry completes the range and hashes it once.
func TestTornFlushPersistsHalf(t *testing.T) {
	dev := pmem.New(pmem.Config{Name: "pmem0", DataSize: 1 << 20, MetaSize: 4 << 10, Mode: pmem.Devdax, Materialized: true})
	data := dev.Data()
	data.Write(0, bytes.Repeat([]byte{0xa5}, 4096))
	in := faults.NewInjector(faults.Config{Flush: faults.Rule{From: 1, To: 1}})
	flush := in.Flush(dev)
	var crc uint32
	if err := flush(0, 4096, &crc); err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("first flush = %v, want injected tear", err)
	}
	if crc != 0 {
		t.Fatalf("torn flush moved the CRC to %08x", crc)
	}
	dev.Crash()
	if got := data.Bytes(0, 4096); bytes.Count(got, []byte{0xa5}) != 2048 {
		t.Fatalf("torn flush persisted %d of 4096 bytes, want the first 2048", bytes.Count(got, []byte{0xa5}))
	}
	data.Write(0, bytes.Repeat([]byte{0xa5}, 4096))
	if err := flush(0, 4096, &crc); err != nil {
		t.Fatalf("second flush = %v, want clean", err)
	}
	if want := crc32.Checksum(data.Bytes(0, 4096), crc32.MakeTable(crc32.Castagnoli)); crc != want {
		t.Fatalf("CRC after the retry = %08x, want %08x", crc, want)
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
