package datapath_test

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/datapath"
	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// healEngine builds an engine with an explicit retry policy on top of
// the shared rig.
func (r *rig) healEngine(cfgMut func(*datapath.Config)) *datapath.Engine {
	cfg := datapath.Config{
		IssueCost: perfmodel.RDMAReadIssueCost,
		Flush: func(off, n int64) error {
			r.flushCalls++
			r.flushedBytes += n
			return nil
		},
		FlushCost: func(n int64) time.Duration {
			return time.Duration(float64(n) / float64(perfmodel.MiB) * float64(perfmodel.FlushPerMiB))
		},
		Retry: datapath.RetryPolicy{MaxAttempts: 5, Backoff: 10 * time.Microsecond},
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	return datapath.New(cfg)
}

// TestPullRetriesTransientVerbErrors: a fabric that fails the first two
// reads heals under the retry policy — the run succeeds, the content is
// intact, and exactly the two re-attempts are reported.
func TestPullRetriesTransientVerbErrors(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		r := newRig(env, false, []int64{2 << 20, 2 << 20})
		r.gpu.WriteStamp(0, 2<<20, 7)
		r.gpu.WriteStamp(2<<20, 2<<20, 8)
		inj := faults.NewInjector(faults.Config{Read: faults.Rule{From: 1, To: 2}})
		r.cx.Fabric = inj.Fabric(r.cx.Fabric)
		e := r.healEngine(nil)
		p := datapath.NewPlan(r.tensors, 1<<20)
		res, err := e.Pull(env, r.cx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Retries != 2 {
			t.Fatalf("retries = %d, want 2", res.Retries)
		}
		if got := r.pm.StampOf(0, 2<<20); got != 7 {
			t.Fatalf("tensor 0 stamp = %d after healed pull", got)
		}
		if r.flushedBytes != p.Bytes {
			t.Fatalf("flushed %d bytes, want %d", r.flushedBytes, p.Bytes)
		}
	})
	eng.Run()
}

// TestPullWithoutRetryPolicyFailsFast: the zero RetryPolicy keeps the
// pre-healing contract — the first transient error fails the run.
func TestPullWithoutRetryPolicyFailsFast(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		r := newRig(env, false, []int64{1 << 20})
		r.gpu.WriteStamp(0, 1<<20, 1)
		inj := faults.NewInjector(faults.Config{Read: faults.Rule{From: 1, To: 1}})
		r.cx.Fabric = inj.Fabric(r.cx.Fabric)
		e := r.engine() // the plain rig engine has no retry policy
		_, err := e.Pull(env, r.cx, datapath.NewPlan(r.tensors, 0), nil)
		if err == nil || !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("err = %v, want the injected failure surfaced", err)
		}
	})
	eng.Run()
}

// TestFlushRetriesAndExhausts: a torn flush is re-attempted under the
// retry budget; when the budget runs out, Pull fails rather than commit
// an unpersisted chunk.
func TestFlushRetriesAndExhausts(t *testing.T) {
	// Heals: the first flush call fails, the retry succeeds.
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		r := newRig(env, false, []int64{1 << 20})
		r.gpu.WriteStamp(0, 1<<20, 2)
		calls := 0
		e := r.healEngine(func(c *datapath.Config) {
			c.Flush = func(off, n int64) error {
				calls++
				if calls == 1 {
					return errors.New("torn flush")
				}
				return nil
			}
		})
		res, err := e.Pull(env, r.cx, datapath.NewPlan(r.tensors, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Retries < 1 {
			t.Fatalf("retries = %d, want >= 1", res.Retries)
		}
	})
	eng.Run()

	// Exhausts: a flush that never succeeds fails the run.
	eng = sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		r := newRig(env, false, []int64{1 << 20})
		r.gpu.WriteStamp(0, 1<<20, 2)
		e := r.healEngine(func(c *datapath.Config) {
			c.Flush = func(off, n int64) error { return errors.New("dead media") }
			c.Retry.MaxAttempts = 3
		})
		_, err := e.Pull(env, r.cx, datapath.NewPlan(r.tensors, 0), nil)
		if err == nil || !strings.Contains(err.Error(), "flushing") {
			t.Fatalf("err = %v, want flushing failure", err)
		}
	})
	eng.Run()
}

// TestPushRetriesTransientVerbErrors: the restore direction heals the
// same way.
func TestPushRetriesTransientVerbErrors(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		r := newRig(env, false, []int64{2 << 20})
		r.pm.WriteStamp(0, 2<<20, 5)
		inj := faults.NewInjector(faults.Config{Write: faults.Rule{From: 1, To: 1}})
		r.cx.Fabric = inj.Fabric(r.cx.Fabric)
		res, err := r.healEngine(nil).Push(env, r.cx, datapath.NewPlan(r.tensors, 1<<20), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Retries != 1 {
			t.Fatalf("retries = %d, want 1", res.Retries)
		}
		if got := r.gpu.StampOf(0, 2<<20); got != 5 {
			t.Fatalf("stamp = %d after healed push", got)
		}
	})
	eng.Run()
}

// TestRunHealsOnRealEnv: under a real environment, where a backoff is a
// real sleep, a chunked pull and push, each with injected verb errors,
// heal under the retry policy and land every byte.
func TestRunHealsOnRealEnv(t *testing.T) {
	const size = int64(8 << 20)
	for _, dir := range []string{"pull", "push"} {
		env := sim.NewRealEnv()
		r := newRig(env, false, []int64{size})
		src, dst := r.gpu, r.pm
		rule := faults.Config{Read: faults.Rule{From: 2, To: 3}}
		if dir == "push" {
			src, dst = r.pm, r.gpu
			rule = faults.Config{Write: faults.Rule{From: 2, To: 3}}
		}
		src.WriteStamp(0, size, 3)
		r.cx.Fabric = faults.NewInjector(rule).Fabric(r.cx.Fabric)
		e := r.healEngine(nil)
		p := datapath.NewPlan(r.tensors, perfmodel.MinChunk)
		run := e.Pull
		if dir == "push" {
			run = e.Push
		}
		res, err := run(env, r.cx, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if res.Retries != 2 || res.Bytes != size || res.Chunks != len(p.Chunks) {
			t.Fatalf("%s: result = %+v, want 2 retries and %d bytes in %d chunks", dir, res, size, len(p.Chunks))
		}
		if got := dst.StampOf(0, size); got != 3 {
			t.Fatalf("%s: destination stamp = %d after the healed run", dir, got)
		}
		if dir == "pull" && r.flushedBytes != size {
			t.Fatalf("pull: flushed %d bytes, want %d", r.flushedBytes, size)
		}
	}
}

// scriptFabric fails verbs by chunk, not by ordinal: script[off] lists
// the errors the next attempts on the chunk at PMem offset off return
// before one is let through.
type scriptFabric struct {
	rdma.Fabric
	script map[int64][]error
}

func (f *scriptFabric) next(off int64) error {
	q := f.script[off]
	if len(q) == 0 {
		return nil
	}
	f.script[off] = q[1:]
	return q[0]
}

func (f *scriptFabric) Read(env sim.Env, local *rdma.Node, l rdma.Slice, r rdma.RemoteSlice) error {
	if err := f.next(l.Off); err != nil {
		return err
	}
	return f.Fabric.Read(env, local, l, r)
}

func (f *scriptFabric) Write(env sim.Env, local *rdma.Node, l rdma.Slice, r rdma.RemoteSlice) error {
	if err := f.next(l.Off); err != nil {
		return err
	}
	return f.Fabric.Write(env, local, l, r)
}

// TestHealingIsScheduleIndependent runs one scripted fault sequence — a
// transient verb error on chunk 1, one route error on chunk 2, one torn
// flush of chunk 3 — through pull and push. Both directions share one
// completion step and one flush-with-retry, so each must report the
// expected Result, leave the same span attributes, and (pull) return
// only after every chunk's flush succeeded. A route error is healed
// like any other verb error: one retry of the same verb.
func TestHealingIsScheduleIndependent(t *testing.T) {
	const mib = int64(1 << 20)
	for _, dir := range []string{"pull", "push"} {
		t.Run(dir, func(t *testing.T) {
			eng := sim.NewEngine()
			eng.Go("test", func(env sim.Env) {
				r := newRig(env, false, []int64{4 * mib})
				src, dst := r.gpu, r.pm
				if dir == "push" {
					src, dst = r.pm, r.gpu
				}
				src.WriteStamp(0, 4*mib, 6)
				r.cx.Fabric = &scriptFabric{Fabric: r.cx.Fabric, script: map[int64][]error{
					1 * mib: {errors.New("transient completion error")},
					2 * mib: {fmt.Errorf("agent gone: %w", rdma.ErrNoRoute)},
				}}
				persisted := map[int64]bool{}
				torn := false
				e := r.healEngine(func(c *datapath.Config) {
					c.Flush = func(off, n int64) error {
						if off == 3*mib && !torn {
							torn = true
							return errors.New("torn flush")
						}
						persisted[off] = true
						return nil
					}
				})
				p := datapath.NewPlan(r.tensors, mib)
				root := &telemetry.Span{Name: "op"}
				run, wantRetries := e.Pull, 3 // chunks 1 and 2's transfers + chunk 3's flush
				if dir == "push" {
					run, wantRetries = e.Push, 2
				}
				res, err := run(env, r.cx, p, root)
				if err != nil {
					t.Fatal(err)
				}
				if res.Bytes != 4*mib || res.Chunks != 4 || res.Retries != wantRetries {
					t.Fatalf("result = %+v, want 4 MiB in 4 chunks, %d retries", res, wantRetries)
				}
				if got := dst.StampOf(0, 4*mib); got != 6 {
					t.Fatalf("destination stamp = %d after healed %s", got, dir)
				}
				if dir == "pull" {
					for _, c := range p.Chunks {
						if !persisted[c.PMemOff] {
							t.Fatalf("Pull returned with chunk %s#%d unflushed", c.Name, c.Seq)
						}
					}
				}

				// One span per attempt: the two failed tries carry
				// the error, and chunks 1 and 2 each land on their
				// second try.
				byName := map[string][]*telemetry.Span{}
				for _, sp := range root.Find(dir).Children {
					byName[sp.Name] = append(byName[sp.Name], sp)
				}
				for seq := 0; seq < 4; seq++ {
					tries := byName[fmt.Sprintf("%s:t0#%d", dir, seq)]
					wantTries := 1
					if seq == 1 || seq == 2 {
						wantTries = 2
					}
					if len(tries) != wantTries {
						t.Fatalf("chunk %d has %d attempt spans, want %d", seq, len(tries), wantTries)
					}
					if wantTries == 2 {
						if a := tries[0].Attrs; a["error"] == "" || a["bytes"] != "" {
							t.Fatalf("chunk %d failed attempt attrs = %v", seq, a)
						}
					}
					ok := tries[wantTries-1].Attrs
					if ok["bytes"] != strconv.FormatInt(mib, 10) || ok["error"] != "" || ok["lane"] != "0" {
						t.Fatalf("chunk %d landed attempt attrs = %v", seq, ok)
					}
					wantAttempt := ""
					if wantTries == 2 {
						wantAttempt = "2"
					}
					if ok["attempt"] != wantAttempt {
						t.Fatalf("chunk %d attempt attr = %q, want %q", seq, ok["attempt"], wantAttempt)
					}
				}
			})
			eng.Run()
		})
	}
}

// TestCopyForwardFlushHeals: a torn flush on a copy-forward span is
// retried under the same policy as a pulled chunk's — before the shared
// flush path, CopyForward failed the delta checkpoint on the first
// flush error — and one that outlasts the budget still fails the run,
// naming the span.
func TestCopyForwardFlushHeals(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		const size = int64(1 << 20)
		r := newDeltaRig(env, size)
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i*13 + 5)
		}
		r.pm.Write(0, want)
		spans := []datapath.CopySpan{
			{Name: "t0", DstOff: size, SrcOff: 0, Size: size / 2},
			{Name: "t0", DstOff: size + size/2, SrcOff: size / 2, Size: size / 2},
		}
		cp := func(dst, src, n int64) error {
			memdev.Copy(r.pm, dst, r.pm, src, n)
			return nil
		}
		calls := 0
		e := r.healEngine(func(c *datapath.Config) {
			c.Retry.MaxAttempts = 3
			c.Flush = func(off, n int64) error {
				if calls++; calls == 2 { // the second span's first flush tears
					return errors.New("torn flush")
				}
				r.flushedBytes += n
				return nil
			}
		})
		res, err := e.CopyForward(env, r.cx, spans, cp, nil)
		if err != nil {
			t.Fatalf("copy-forward with one torn flush: %v", err)
		}
		if res.Retries != 1 || res.Bytes != size || res.Chunks != 2 {
			t.Fatalf("result = %+v, want 1 retry, %d bytes in 2 spans", res, size)
		}
		if r.flushedBytes != size {
			t.Fatalf("flushed %d bytes, want every copied byte (%d)", r.flushedBytes, size)
		}
		if !bytes.Equal(r.pm.Bytes(size, size), want) {
			t.Fatal("copied slot differs from the source after the healed flush")
		}

		dead := r.healEngine(func(c *datapath.Config) {
			c.Retry.MaxAttempts = 3
			c.Flush = func(off, n int64) error { return errors.New("dead media") }
		})
		res, err = dead.CopyForward(env, r.cx, spans, cp, nil)
		if err == nil || !strings.Contains(err.Error(), "copy-forward flush t0") {
			t.Fatalf("err = %v, want a copy-forward flush failure naming the span", err)
		}
		if res.Retries != 2 {
			t.Fatalf("retries = %d before giving up, want 2", res.Retries)
		}
	})
	eng.Run()
}
