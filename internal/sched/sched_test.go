package sched

import (
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// run spins the test body inside a fresh simulation engine.
func run(t *testing.T, body func(env sim.Env)) {
	t.Helper()
	eng := sim.NewEngine()
	done := false
	eng.Go("test", func(env sim.Env) { body(env); done = true })
	eng.Run()
	if !done {
		t.Fatal("test body never finished: a scheduler call blocked forever")
	}
}

func task(model string, class Class, iter uint64) *Task {
	return &Task{Model: model, Class: class, Iteration: iter, Payload: model}
}

func TestPerModelFIFOAndSerialization(t *testing.T) {
	run(t, func(env sim.Env) {
		s := New(env, Config{})
		if v := s.Submit(env, task("m", ClassCheckpoint, 1)); v.Verdict != Admitted {
			t.Fatalf("first submit verdict = %v", v.Verdict)
		}
		t1, ok := s.Next(env)
		if !ok || t1.Iteration != 1 {
			t.Fatalf("Next = %+v, %v", t1, ok)
		}
		// While iteration 1 runs, a restore for the same model queues
		// behind it: at most one task per model executes at a time.
		if v := s.Submit(env, task("m", ClassRestore, 0)); v.Verdict != Admitted {
			t.Fatalf("restore submit verdict = %v", v.Verdict)
		}
		if d := s.ModelDepth("m"); d != 1 {
			t.Fatalf("model depth = %d, want 1", d)
		}
		got := make(chan *Task, 1)
		env.Go("worker", func(env sim.Env) {
			t2, ok := s.Next(env)
			if ok {
				got <- t2
			}
		})
		env.Sleep(time.Millisecond)
		select {
		case <-got:
			t.Fatal("second task dispatched while the first still runs")
		default:
		}
		s.Done(env, t1)
		env.Sleep(time.Millisecond)
		t2 := <-got
		if t2.Class != ClassRestore {
			t.Fatalf("second dispatch = %+v, want the restore", t2)
		}
		s.Done(env, t2)
		if !s.Idle("m") {
			t.Fatal("model not idle after both tasks done")
		}
	})
}

func TestRestorePreemptsQueuedCheckpoints(t *testing.T) {
	run(t, func(env sim.Env) {
		s := New(env, Config{})
		s.Submit(env, task("a", ClassCheckpoint, 1))
		s.Submit(env, task("b", ClassRestore, 0))
		// Both lanes are dispatchable; the restore class is served first
		// even though the checkpoint arrived earlier.
		t1, _ := s.Next(env)
		if t1.Class != ClassRestore || t1.Model != "b" {
			t.Fatalf("first dispatch = %+v, want b's restore", t1)
		}
		t2, _ := s.Next(env)
		if t2.Class != ClassCheckpoint || t2.Model != "a" {
			t.Fatalf("second dispatch = %+v, want a's checkpoint", t2)
		}
	})
}

func TestCoalesceNewestIterationWins(t *testing.T) {
	run(t, func(env sim.Env) {
		s := New(env, Config{})
		// Occupy the lane so later submissions stay queued.
		s.Submit(env, task("m", ClassCheckpoint, 1))
		running, _ := s.Next(env)

		s.Submit(env, task("m", ClassCheckpoint, 2))
		if v := s.Submit(env, task("m", ClassCheckpoint, 4)); v.Verdict != CoalescedVerdict {
			t.Fatalf("newer iteration verdict = %v, want coalesced", v.Verdict)
		}
		// An even older straggler is absorbed into the queued task.
		if v := s.Submit(env, task("m", ClassCheckpoint, 3)); v.Verdict != CoalescedVerdict {
			t.Fatalf("older straggler verdict = %v, want coalesced", v.Verdict)
		}
		if got := s.cfg.Events.Count(telemetry.EvSchedCoalesce); got != 2 {
			t.Fatalf("coalesced counter = %d, want 2", got)
		}
		// Only one queued task remains; it is the newest iteration and
		// carries the superseded waiters.
		if d := s.ModelDepth("m"); d != 1 {
			t.Fatalf("model depth = %d, want 1 after coalescing", d)
		}
		s.Done(env, running)
		got, _ := s.Next(env)
		if got.Iteration != 4 {
			t.Fatalf("surviving iteration = %d, want 4", got.Iteration)
		}
		if len(got.Coalesced) != 2 {
			t.Fatalf("coalesced waiters = %d, want 2 (iterations 2 and 3)", len(got.Coalesced))
		}
		seen := map[uint64]bool{}
		for _, st := range got.Coalesced {
			seen[st.Iteration] = true
		}
		if !seen[2] || !seen[3] {
			t.Fatalf("coalesced iterations = %v, want {2, 3}", got.Coalesced)
		}
	})
}

func TestDedupAttachesDuplicateWaiters(t *testing.T) {
	run(t, func(env sim.Env) {
		s := New(env, Config{})
		s.Submit(env, task("m", ClassCheckpoint, 7))
		running, _ := s.Next(env)
		// Retry of the in-flight iteration parks on the running task.
		if v := s.Submit(env, task("m", ClassCheckpoint, 7)); v.Verdict != Deduped {
			t.Fatalf("retry of running verdict = %v, want deduped", v.Verdict)
		}
		if len(running.Dups) != 1 {
			t.Fatalf("running dups = %d, want 1", len(running.Dups))
		}
		// Retry of a queued iteration parks on the queued task.
		s.Submit(env, task("m", ClassCheckpoint, 8))
		if v := s.Submit(env, task("m", ClassCheckpoint, 8)); v.Verdict != Deduped {
			t.Fatalf("retry of queued verdict = %v, want deduped", v.Verdict)
		}
		// Restores dedup regardless of iteration.
		s.Submit(env, task("m", ClassRestore, 0))
		if v := s.Submit(env, task("m", ClassRestore, 0)); v.Verdict != Deduped {
			t.Fatalf("restore retry verdict = %v, want deduped", v.Verdict)
		}
		if got := s.cfg.Events.Count(telemetry.EvSchedDedup); got != 3 {
			t.Fatalf("dedup counter = %d, want 3", got)
		}
	})
}

func TestBoundedQueuesRejectWithRetryAfter(t *testing.T) {
	run(t, func(env sim.Env) {
		s := New(env, Config{ModelQueueCap: 1, GlobalCap: 2, Workers: 1})
		s.Submit(env, task("a", ClassCheckpoint, 1))
		running, _ := s.Next(env)
		s.Submit(env, task("a", ClassCheckpoint, 2)) // queued: model at cap
		// A restore for the same model hits the per-model bound.
		v := s.Submit(env, task("a", ClassRestore, 0))
		if v.Verdict != Rejected {
			t.Fatalf("over per-model cap verdict = %v, want rejected", v.Verdict)
		}
		if v.RetryAfter <= 0 {
			t.Fatalf("rejected without a retry-after hint: %v", v.RetryAfter)
		}
		// But a retry of the queued iteration still dedups: bounds apply
		// only to fresh admissions.
		if v := s.Submit(env, task("a", ClassCheckpoint, 2)); v.Verdict != Deduped {
			t.Fatalf("dedup under pressure verdict = %v, want deduped", v.Verdict)
		}
		// Fill the global bound with a second model, then a third model
		// bounces even though its own lane is empty.
		s.Submit(env, task("b", ClassCheckpoint, 1))
		if v := s.Submit(env, task("c", ClassCheckpoint, 1)); v.Verdict != Rejected {
			t.Fatalf("over global cap verdict = %v, want rejected", v.Verdict)
		}
		if got := s.cfg.Events.Count(telemetry.EvSchedBusy); got != 2 {
			t.Fatalf("busy replies counter = %d, want 2", got)
		}
		s.Done(env, running)
	})
}

func TestFairPickerRoundRobinsModels(t *testing.T) {
	run(t, func(env sim.Env) {
		s := New(env, Config{})
		// One queued checkpoint per model, registered a, b, c. With no
		// Done in between, each dispatch must come from a distinct lane,
		// walking the ring in order.
		for _, m := range []string{"a", "b", "c"} {
			s.Submit(env, task(m, ClassCheckpoint, 1))
		}
		var order []string
		for i := 0; i < 3; i++ {
			tk, ok := s.Next(env)
			if !ok {
				t.Fatal("Next closed early")
			}
			order = append(order, tk.Model)
		}
		if order[0] != "a" || order[1] != "b" || order[2] != "c" {
			t.Fatalf("dispatch order = %v, want [a b c]", order)
		}
	})
}

func TestQueueDepthTracksSubmitNextDone(t *testing.T) {
	run(t, func(env sim.Env) {
		s := New(env, Config{})
		if s.QueueDepth() != 0 {
			t.Fatal("fresh scheduler depth != 0")
		}
		s.Submit(env, task("a", ClassCheckpoint, 1))
		s.Submit(env, task("b", ClassCheckpoint, 1))
		if got := s.QueueDepth(); got != 2 {
			t.Fatalf("depth after 2 submits = %d", got)
		}
		t1, _ := s.Next(env)
		if got := s.QueueDepth(); got != 1 {
			t.Fatalf("depth after 1 dispatch = %d", got)
		}
		s.Done(env, t1)
		t2, _ := s.Next(env)
		s.Done(env, t2)
		if got := s.QueueDepth(); got != 0 {
			t.Fatalf("depth after drain = %d", got)
		}
	})
}

func TestForgetDropsIdleLaneOnly(t *testing.T) {
	run(t, func(env sim.Env) {
		s := New(env, Config{})
		s.Submit(env, task("m", ClassCheckpoint, 1))
		tk, _ := s.Next(env)
		s.Forget("m") // busy: must be a no-op
		if s.Idle("m") {
			t.Fatal("running model reported idle")
		}
		s.Done(env, tk)
		s.Forget("m")
		if len(s.order) != 0 {
			t.Fatalf("lane ring not empty after Forget: %v", s.order)
		}
	})
}

func TestCloseWakesBlockedWorkers(t *testing.T) {
	run(t, func(env sim.Env) {
		s := New(env, Config{})
		woke := sim.NewSignal(env)
		env.Go("worker", func(env sim.Env) {
			if _, ok := s.Next(env); ok {
				t.Error("Next returned a task after Close")
			}
			woke.Fire(env)
		})
		env.Sleep(time.Millisecond)
		s.Close(env)
		woke.Wait(env)
	})
}
