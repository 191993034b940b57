package sim

import (
	"sync"
	"time"
)

// Env is the execution environment handed to every component of the
// system. Components written against Env run unchanged under the
// discrete-event engine (virtual time, deterministic) and under the real
// runtime (wall-clock time, ordinary goroutines).
//
// In the simulated environment each spawned process receives its own Env
// value; Env values must not be shared across processes (the engine needs
// to know which process is blocking).
type Env interface {
	// Now reports the current time: virtual in simulation, elapsed
	// wall-clock time since environment creation otherwise.
	Now() time.Duration
	// Sleep suspends the calling process for d. In the real environment
	// this is a true time.Sleep.
	Sleep(d time.Duration)
	// Go spawns a concurrent process running fn. fn receives the Env it
	// must use for all blocking operations.
	Go(name string, fn func(Env))
	// IsSim reports whether this environment runs under virtual time.
	// Components may use it to skip modeled costs in the real runtime.
	IsSim() bool
}

// Charge spends a modeled cost d on the virtual clock: it sleeps under
// simulation and returns at once under a real environment, where the
// wall clock already pays for the work the model stands for. Costs of
// work that really runs (a memmove, a flush, a hash pass) are charged
// this way; PipelineTransfer follows the same rule.
func Charge(env Env, d time.Duration) {
	if env.IsSim() {
		env.Sleep(d)
	}
}

// Backoff returns the delay before retry n (n >= 1) of a capped
// exponential backoff: base·2ⁿ⁻¹, at most max. A base <= 0 means no
// delay.
func Backoff(base time.Duration, n int, max time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < n && d < max; i++ {
		d *= 2
	}
	return min(d, max)
}

// simEnv is the per-process Env for the discrete-event engine.
type simEnv struct {
	eng *Engine
	p   *proc
}

func (s *simEnv) Now() time.Duration { return s.eng.now }

func (s *simEnv) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.eng.schedule(s.eng.now+d, s.p, nil, "wake:"+s.p.name)
	s.p.park()
}

func (s *simEnv) Go(name string, fn func(Env)) { s.eng.Go(name, fn) }

func (s *simEnv) IsSim() bool { return true }

// parkOnCondition blocks the calling process with no pending event; the
// waker must later call s.eng.scheduleWake. Used by signals and
// mailboxes.
func (s *simEnv) parkOnCondition() { s.p.park() }

// scheduleWake enqueues a wake event for a process parked via
// parkOnCondition.
func (e *Engine) scheduleWake(p *proc, label string) {
	e.schedule(e.now, p, nil, label)
}

// RealEnv is the wall-clock implementation of Env, used by the TCP-backed
// executables and integration tests. Its zero value is not usable; create
// one with NewRealEnv.
type RealEnv struct {
	start time.Time
	wg    *sync.WaitGroup
}

// NewRealEnv returns a wall-clock environment anchored at the current
// time.
func NewRealEnv() *RealEnv {
	return &RealEnv{start: time.Now(), wg: &sync.WaitGroup{}}
}

// Now reports time elapsed since the environment was created.
func (r *RealEnv) Now() time.Duration { return time.Since(r.start) }

// Sleep pauses the calling goroutine for d of real time.
func (r *RealEnv) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Go runs fn on a new goroutine tracked by Wait.
func (r *RealEnv) Go(name string, fn func(Env)) {
	_ = name
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn(r)
	}()
}

// IsSim reports false: this environment uses wall-clock time.
func (r *RealEnv) IsSim() bool { return false }

// Wait blocks until every goroutine spawned through Go has returned.
func (r *RealEnv) Wait() { r.wg.Wait() }
