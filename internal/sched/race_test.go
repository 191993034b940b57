package sched

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/sim"
)

// TestConcurrentSubmitRaceRegression is the regression test for the
// old daemon enqueue race: between a failed busy.CompareAndSwap and
// the duplicate-park check, a concurrent completion could slip in and
// a legitimate retry was hard-rejected (or worse, double-executed).
// The scheduler runs all admission under one lock, so hammering Submit
// from many goroutines across many models — while workers concurrently
// drain — must answer every single submission exactly once: executed,
// parked as a duplicate, or coalesced. Run with -race; the test also
// asserts per-model execution never overlaps (the version-slot safety
// the busy flag used to provide).
func TestConcurrentSubmitRaceRegression(t *testing.T) {
	env := sim.NewRealEnv()
	s := New(env, Config{ModelQueueCap: -1, GlobalCap: -1, Workers: 4})

	const (
		models     = 16
		submitters = 4 // goroutines per model, racing the same iterations
		iters      = 25
	)
	names := make([]string, models)
	for i := range names {
		names[i] = string(rune('a'+i%26)) + "-model"
		if i >= 26 {
			names[i] = names[i] + "x"
		}
	}

	var (
		expected int64 // submissions that must eventually be answered
		answered int64
		rejected int64
		inflight [models]atomic.Int32
		overlap  atomic.Bool
	)
	laneOf := make(map[string]int, models)
	for i, n := range names {
		laneOf[n] = i
	}

	// Workers drain concurrently with the submitters.
	workers := sync.WaitGroup{}
	for w := 0; w < 4; w++ {
		workers.Add(1)
		env.Go("worker", func(env sim.Env) {
			defer workers.Done()
			for {
				tk, ok := s.Next(env)
				if !ok {
					return
				}
				li := laneOf[tk.Model]
				if inflight[li].Add(1) > 1 {
					overlap.Store(true)
				}
				time.Sleep(50 * time.Microsecond) // hold the lane briefly
				inflight[li].Add(-1)
				s.Done(env, tk)
				// After Done the waiter lists are stable: count every
				// connection this execution answers.
				atomic.AddInt64(&answered, int64(1+len(tk.Dups)+len(tk.Coalesced)))
			}
		})
	}

	subs := sync.WaitGroup{}
	for m := 0; m < models; m++ {
		for g := 0; g < submitters; g++ {
			subs.Add(1)
			name := names[m]
			env.Go("submitter", func(env sim.Env) {
				defer subs.Done()
				for i := uint64(1); i <= iters; i++ {
					res := s.Submit(env, &Task{
						Model: name, Class: ClassCheckpoint, Iteration: i,
						EnqueuedAt: env.Now(), Payload: name,
					})
					if res.Verdict == Rejected {
						atomic.AddInt64(&rejected, 1)
					} else {
						atomic.AddInt64(&expected, 1)
					}
				}
			})
		}
	}
	subs.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for atomic.LoadInt64(&answered) < atomic.LoadInt64(&expected) {
		if time.Now().After(deadline) {
			t.Fatalf("answered %d of %d submissions before timeout: waiters were lost",
				atomic.LoadInt64(&answered), atomic.LoadInt64(&expected))
		}
		time.Sleep(time.Millisecond)
	}
	s.Close(env)
	workers.Wait()

	if got := atomic.LoadInt64(&rejected); got != 0 {
		t.Fatalf("%d submissions rejected with unbounded queues", got)
	}
	if got, want := atomic.LoadInt64(&answered), atomic.LoadInt64(&expected); got != want {
		t.Fatalf("answered %d submissions, want exactly %d (no double-answers)", got, want)
	}
	if overlap.Load() {
		t.Fatal("two tasks for the same model executed concurrently")
	}
	if s.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after drain", s.QueueDepth())
	}
}

// TestScrapeRacesNewLanes is the regression test for a scrape
// deadlocking against admission: a lane's first Submit registers its
// depth gauge while holding the scheduler mutex, and scraping that
// gauge takes the same mutex. While the registry sampled func series
// under the family lock, a scrape loop racing first-time Submits hung
// until killed; both loops must now run to completion.
func TestScrapeRacesNewLanes(t *testing.T) {
	env := sim.NewRealEnv()
	s := New(env, Config{ModelQueueCap: -1, GlobalCap: -1})
	const models = 3000

	stop := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scrapes <- n
				return
			default:
			}
			s.Telemetry().WritePrometheus(io.Discard)
			n++
		}
	}()
	admitted := make(chan struct{})
	go func() {
		for i := 0; i < models; i++ {
			s.Submit(env, &Task{Model: fmt.Sprintf("m%04d", i), Class: ClassCheckpoint, Iteration: 1})
		}
		close(admitted)
	}()
	select {
	case <-admitted:
	case <-time.After(60 * time.Second):
		t.Fatal("Submit deadlocked against a concurrent scrape")
	}
	close(stop)
	select {
	case n := <-scrapes:
		if n == 0 {
			t.Fatal("no scrape completed while lanes were being created")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("a scrape deadlocked against Submit")
	}
	if got := s.QueueDepth(); got != models {
		t.Fatalf("queue depth = %d, want %d", got, models)
	}
}
