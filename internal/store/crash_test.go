package store

import (
	"errors"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/telemetry"
)

// TestOnlinePassCrashConsistency injects a power failure at every move
// boundary of an online repack pass (and every end-of-pass boundary),
// restarts the engine over the surviving media, and checks that every
// group-committed checkpoint still restores byte-identical. The
// per-extent discipline — allocate below, copy, flush, repoint with one
// failure-atomic persist, free — means the pointer always lands on an
// entirely-old or entirely-new extent; the orphaned side is exactly
// what Open's leak sweep reclaims.
func TestOnlinePassCrashConsistency(t *testing.T) {
	points := []string{
		"pre-copy", "post-copy", "post-flush", "post-point", "post-free",
		"pre-trim", "post-trim", "post-compact-table",
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			pm := pmem.New(pmem.Config{Name: "pm", DataSize: 16 << 20, MetaSize: 8 << 20, Materialized: true})
			e, err := Open(Config{PMem: pm, TableCap: 16})
			if err != nil {
				t.Fatal(err)
			}
			// Three models; "a" is deleted to open gaps at the bottom of
			// the zone so b's and c's extents have somewhere to move.
			stamps := map[string][][]uint64{}
			iters := map[string][]uint64{"b": {7, 9}, "c": {3, 4}}
			models := map[string]*index.Model{}
			for _, n := range []string{"a", "b", "c"} {
				m, err := e.CreateModel(n, metas(n, 128<<10, 64<<10))
				if err != nil {
					t.Fatal(err)
				}
				models[n] = m
				if n == "a" {
					commit(pm, m, 0, 1)
					continue
				}
				// Both slots committed: the move loop visits every
				// populated slot, and both must survive the crash.
				stamps[n] = [][]uint64{
					commit(pm, m, 0, iters[n][0]),
					commit(pm, m, 1, iters[n][1]),
				}
			}
			if err := e.DeleteModel(models["a"]); err != nil {
				t.Fatal(err)
			}

			fired := false
			e.crashHook = func(p string) bool {
				if fired || p != point {
					return false
				}
				fired = true
				pm.Crash()
				return true
			}
			crashed := false
			for _, n := range []string{"b", "c"} {
				if _, err := e.CompactModel(models[n]); err != nil {
					if !errors.Is(err, ErrCrashed) {
						t.Fatalf("CompactModel(%s): %v", n, err)
					}
					crashed = true
					break
				}
			}
			if !crashed {
				if _, err := e.FinishPass(2, 0, time.Millisecond, telemetry.NewTraceID()); err != nil {
					if !errors.Is(err, ErrCrashed) {
						t.Fatal(err)
					}
					crashed = true
				}
			}
			if !crashed || !fired {
				t.Fatalf("crash point %q never fired (crashed=%v fired=%v)", point, crashed, fired)
			}

			// Restart: re-open the engine over the post-crash media.
			verify := func(e *Engine, phase string) {
				for _, n := range []string{"b", "c"} {
					m, err := e.Index().Lookup(n)
					if err != nil {
						t.Fatalf("%s: Lookup(%s): %v", phase, n, err)
					}
					for slot := 0; slot < 2; slot++ {
						h := m.VersionHeader(slot)
						if h.State != index.StateDone || h.Iteration != iters[n][slot] {
							t.Fatalf("%s: %s slot %d = state %s iter %d, want DONE %d",
								phase, n, slot, index.StateName(h.State), h.Iteration, iters[n][slot])
						}
						for i := range m.Tensors {
							ext := m.TensorData(i, slot)
							if got := pm.Data().StampOf(ext.Off, ext.Size); got != stamps[n][slot][i] {
								t.Fatalf("%s: %s slot %d tensor %d not byte-identical after crash at %q",
									phase, n, slot, i, point)
							}
						}
					}
				}
			}
			e2, err := Open(Config{PMem: pm, TableCap: 16})
			if err != nil {
				t.Fatalf("re-open after crash at %q: %v", point, err)
			}
			verify(e2, "post-crash")

			// The sweep must leave exactly the referenced extents live:
			// 2 models x 2 tensors x 2 slots.
			if got := len(e2.Allocator().Live()); got != 8 {
				t.Fatalf("%d live extents after sweep, want 8", got)
			}

			// A clean pass over the recovered engine must complete and
			// preserve everything again.
			var moved int64
			for _, n := range []string{"b", "c"} {
				m, err := e2.Index().Lookup(n)
				if err != nil {
					t.Fatal(err)
				}
				mv, err := e2.CompactModel(m)
				if err != nil {
					t.Fatalf("recovered CompactModel(%s): %v", n, err)
				}
				moved += mv
			}
			if _, err := e2.FinishPass(2, moved, time.Millisecond, telemetry.NewTraceID()); err != nil {
				t.Fatal(err)
			}
			verify(e2, "post-recovery-pass")
		})
	}
}
