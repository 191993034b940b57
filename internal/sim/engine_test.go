package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(env Env) {
		env.Sleep(30 * time.Millisecond)
		order = append(order, "a")
	})
	e.Go("b", func(env Env) {
		env.Sleep(10 * time.Millisecond)
		order = append(order, "b")
	})
	e.Go("c", func(env Env) {
		env.Sleep(20 * time.Millisecond)
		order = append(order, "c")
	})
	end := e.Run()
	if want := []string{"b", "c", "a"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
	if end != 30*time.Millisecond {
		t.Fatalf("final time = %v, want 30ms", end)
	}
}

func TestNowAdvancesMonotonically(t *testing.T) {
	e := NewEngine()
	var stamps []time.Duration
	for i := 0; i < 5; i++ {
		d := time.Duration(i+1) * time.Millisecond
		e.Go("p", func(env Env) {
			env.Sleep(d)
			stamps = append(stamps, env.Now())
			env.Sleep(d)
			stamps = append(stamps, env.Now())
		})
	}
	e.Run()
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("time went backwards: %v after %v", stamps[i], stamps[i-1])
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Go("p", func(env Env) {
			env.Sleep(5 * time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-instant events not FIFO: %v", order)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Go("late", func(env Env) {
		env.Sleep(time.Hour)
		fired = true
	})
	now := e.RunUntil(time.Minute)
	if fired {
		t.Fatal("event beyond deadline was dispatched")
	}
	if now != time.Minute {
		t.Fatalf("RunUntil returned %v, want 1m", now)
	}
	e.Run()
	if !fired {
		t.Fatal("event not dispatched after resuming Run")
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Go("parent", func(env Env) {
		env.Sleep(time.Millisecond)
		env.Go("child", func(env Env) {
			env.Sleep(time.Millisecond)
			got = append(got, "child")
		})
		got = append(got, "parent")
	})
	e.Run()
	if want := []string{"parent", "child"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Go("boom", func(env Env) { panic("kaboom") })
	defer func() {
		if recover() == nil {
			t.Fatal("expected engine to re-panic")
		}
	}()
	e.Run()
}

// TestRunReapsAbandonedProcesses: processes still parked on a mailbox,
// signal or group when the queue drains used to block on their wake
// channel forever, pinning everything they referenced. Run must end
// them — deferred calls run, even one that tries to block — so a
// hundred engines later the goroutine count is back where it started.
func TestRunReapsAbandonedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	unwound := 0
	for i := 0; i < 100; i++ {
		e := NewEngine()
		e.Go("root", func(env Env) {
			mb, sig, g := NewMailbox[int](env), NewSignal(env), NewGroup(env)
			g.Add(env, 1)
			env.Go("on-mailbox", func(env Env) {
				defer func() { unwound++ }()
				mb.Recv(env)
				t.Error("abandoned mailbox receiver resumed")
			})
			env.Go("on-signal", func(env Env) {
				defer func() { unwound++ }()
				defer env.Sleep(time.Second) // blocks while being reaped
				sig.Wait(env)
				t.Error("abandoned signal waiter resumed")
			})
			env.Go("on-group", func(env Env) {
				g.Wait(env)
				t.Error("abandoned group waiter resumed")
			})
		})
		if end := e.Run(); end != 0 {
			t.Fatalf("reaping advanced virtual time to %v", end)
		}
		if e.Live() != 0 {
			t.Fatalf("%d processes outlived Run", e.Live())
		}
	}
	if unwound != 200 {
		t.Fatalf("%d deferred calls ran in reaped processes, want 200", unwound)
	}
	// A reaped goroutine signals the engine just before it exits.
	for tries := 0; runtime.NumGoroutine() > base && tries < 1000; tries++ {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after 100 engine runs, %d before", got, base)
	}
}

func TestSignalBroadcastAndLateWait(t *testing.T) {
	e := NewEngine()
	var woke []string
	var sig *Signal
	e.Go("init", func(env Env) {
		sig = NewSignal(env)
		for _, n := range []string{"w1", "w2"} {
			n := n
			env.Go(n, func(env Env) {
				sig.Wait(env)
				woke = append(woke, n)
			})
		}
		env.Go("firer", func(env Env) {
			env.Sleep(10 * time.Millisecond)
			sig.Fire(env)
		})
		env.Go("late", func(env Env) {
			env.Sleep(20 * time.Millisecond)
			sig.Wait(env) // already fired: returns immediately
			woke = append(woke, "late")
			if !sig.Fired(env) {
				t.Error("Fired() = false after Fire")
			}
		})
	})
	e.Run()
	if want := []string{"w1", "w2", "late"}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke = %v, want %v", woke, want)
	}
}

func TestGroupWait(t *testing.T) {
	e := NewEngine()
	var doneAt time.Duration
	e.Go("main", func(env Env) {
		g := NewGroup(env)
		for i := 1; i <= 3; i++ {
			i := i
			g.Add(env, 1)
			env.Go("worker", func(env Env) {
				env.Sleep(time.Duration(i) * time.Millisecond)
				g.Done(env)
			})
		}
		g.Wait(env)
		doneAt = env.Now()
	})
	e.Run()
	if doneAt != 3*time.Millisecond {
		t.Fatalf("group released at %v, want 3ms", doneAt)
	}
}

func TestMailboxFIFOAndClose(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Go("main", func(env Env) {
		mb := NewMailbox[int](env)
		env.Go("producer", func(env Env) {
			for i := 0; i < 5; i++ {
				env.Sleep(time.Millisecond)
				mb.Send(env, i)
			}
			mb.Close(env)
		})
		env.Go("consumer", func(env Env) {
			for {
				v, ok := mb.Recv(env)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
	})
	e.Run()
	if want := []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMailboxTryRecv(t *testing.T) {
	e := NewEngine()
	e.Go("main", func(env Env) {
		mb := NewMailbox[string](env)
		if _, ok := mb.TryRecv(env); ok {
			t.Error("TryRecv on empty mailbox succeeded")
		}
		mb.Send(env, "x")
		if v, ok := mb.TryRecv(env); !ok || v != "x" {
			t.Errorf("TryRecv = %q, %v; want x, true", v, ok)
		}
		if mb.Len(env) != 0 {
			t.Errorf("Len = %d, want 0", mb.Len(env))
		}
	})
	e.Run()
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		e.SetTracing(true)
		rng := rand.New(rand.NewSource(7))
		var mb *Mailbox[int]
		e.Go("root", func(env Env) {
			mb = NewMailbox[int](env)
			for i := 0; i < 20; i++ {
				d := time.Duration(rng.Intn(1000)) * time.Microsecond
				i := i
				env.Go("p", func(env Env) {
					env.Sleep(d)
					mb.Send(env, i)
				})
			}
			env.Go("drain", func(env Env) {
				for j := 0; j < 20; j++ {
					mb.Recv(env)
				}
			})
		})
		e.Run()
		return e.Trace()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two runs of the same program produced different traces")
	}
}

// Property: any set of sleep durations wakes processes in nondecreasing
// duration order.
func TestSleepOrderProperty(t *testing.T) {
	prop := func(durs []uint16) bool {
		if len(durs) == 0 {
			return true
		}
		e := NewEngine()
		var woke []time.Duration
		for _, d := range durs {
			d := time.Duration(d) * time.Microsecond
			e.Go("p", func(env Env) {
				env.Sleep(d)
				woke = append(woke, env.Now())
			})
		}
		e.Run()
		return sort.SliceIsSorted(woke, func(i, j int) bool { return woke[i] < woke[j] })
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestRealEnvBasics(t *testing.T) {
	env := NewRealEnv()
	if env.IsSim() {
		t.Fatal("RealEnv.IsSim() = true")
	}
	mb := NewMailbox[int](env)
	sig := NewSignal(env)
	env.Go("producer", func(e Env) {
		mb.Send(e, 42)
		sig.Fire(e)
	})
	sig.Wait(env)
	if v, ok := mb.Recv(env); !ok || v != 42 {
		t.Fatalf("Recv = %d, %v; want 42, true", v, ok)
	}
	env.Wait()
	if env.Now() < 0 {
		t.Fatal("RealEnv.Now() went backwards")
	}
}

func TestRealEnvGroup(t *testing.T) {
	env := NewRealEnv()
	g := NewGroup(env)
	sum := make(chan int, 8)
	for i := 0; i < 8; i++ {
		g.Add(env, 1)
		i := i
		env.Go("w", func(e Env) {
			sum <- i
			g.Done(e)
		})
	}
	g.Wait(env)
	if len(sum) != 8 {
		t.Fatalf("only %d workers ran", len(sum))
	}
}

// TestChargeIsVirtualOnly: a modeled cost advances the sim clock by
// exactly d and costs a real environment nothing.
func TestChargeIsVirtualOnly(t *testing.T) {
	const d = 1500 * time.Millisecond
	e := NewEngine()
	var elapsed time.Duration
	e.Go("x", func(env Env) {
		t0 := env.Now()
		Charge(env, d)
		elapsed = env.Now() - t0
	})
	e.Run()
	if elapsed != d {
		t.Fatalf("sim clock advanced %v, want exactly %v", elapsed, d)
	}
	start := time.Now()
	Charge(NewRealEnv(), time.Hour)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("Charge under RealEnv should return at once")
	}
}

// TestBackoffDoublesToCap: delay n is base·2ⁿ⁻¹ until it reaches the
// cap and stays there; a base above the cap is clamped to it, and a
// non-positive base means no delay at all.
func TestBackoffDoublesToCap(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		base, max time.Duration
		want      []time.Duration
	}{
		{300 * ms, 500 * ms, []time.Duration{300 * ms, 500 * ms, 500 * ms, 500 * ms}},
		{2 * ms, 500 * ms, []time.Duration{2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 64 * ms, 128 * ms, 256 * ms, 500 * ms, 500 * ms}},
		{ms, ms, []time.Duration{ms, ms}},
		{time.Second, 500 * ms, []time.Duration{500 * ms, 500 * ms}},
		{0, 500 * ms, []time.Duration{0, 0}},
	} {
		for i, want := range c.want {
			if got := Backoff(c.base, i+1, c.max); got != want {
				t.Errorf("Backoff(%v, %d, %v) = %v, want %v", c.base, i+1, c.max, got, want)
			}
		}
	}
}
