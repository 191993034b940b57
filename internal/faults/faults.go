// Package faults is the deterministic fault-injection layer the
// robustness tests and the chaos experiment drive. An Injector wraps
// the three surfaces a real Portus deployment loses first — the RDMA
// fabric (RNIC completion errors, delayed completions), the
// control-plane connection (drops mid-exchange), and the PMem flush
// path (torn or failed CLWB batches) — behind composable per-site
// schedules. A whole node's loss is KillNode.
//
// Every decision is a pure function of the injector's seed and the
// per-site operation ordinal, so a fixed seed replays the exact same
// fault sequence under the simulation engine's deterministic
// scheduling. Schedules combine a probabilistic rate with an optional
// deterministic ordinal window, so tests can say both "10% of reads
// fail" and "exactly the 4th control-plane op drops the connection".
//
// Injected faults are counted per site and exported as
// portus_faults_injected_total{site=...} when a telemetry registry is
// supplied, so a Prometheus scrape shows what the harness actually did.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// ErrInjected marks every failure this package fabricates; errors.Is
// lets tests tell injected faults from organic ones.
var ErrInjected = errors.New("faults: injected failure")

// Injection sites, used as the counter's site label and as keys for
// Injected.
const (
	SiteRead  = "verb-read"
	SiteWrite = "verb-write"
	SiteDelay = "verb-delay"
	SiteConn  = "conn"
	SiteFlush = "flush"
	SiteKill  = "node-kill"
)

// Rule schedules one fault site. A rule fires when the operation's
// ordinal falls inside the deterministic [From, To] window (1-based,
// inclusive; To == 0 disables the window), or with probability Rate
// from the injector's seeded stream. The zero Rule never fires.
type Rule struct {
	Rate     float64
	From, To int
}

func (r Rule) enabled() bool { return r.Rate > 0 || r.To > 0 }

// Config is the fault schedule for one Injector.
type Config struct {
	// Seed fixes the probabilistic stream; the same seed and the same
	// operation order replay the same faults.
	Seed int64
	// Read and Write fail one-sided verbs with a transient completion
	// error (retryable).
	Read, Write Rule
	// Delay stalls a verb for DelayBy before letting it through —
	// a slow completion, not a failure.
	Delay   Rule
	DelayBy time.Duration
	// Conn drops the wrapped control connection: the op that fires
	// fails, the underlying conn is closed, and every later op reports
	// the closed connection.
	Conn Rule
	// Flush tears PMem flushes: only the first half of the range is
	// persisted and the flush reports failure (retryable).
	Flush Rule
	// Telemetry, when set, receives portus_faults_injected_total
	// counters labeled by site.
	Telemetry *telemetry.Registry
}

// Injector makes the schedule's decisions and counts what it injected.
// One injector may wrap any number of fabrics, conns, and flush paths;
// they share the seeded stream in operation order.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	rng      *rand.Rand
	ops      map[string]int
	injected map[string]int64
	counters map[string]*telemetry.Counter
	nodes    map[string][]func(env sim.Env)
}

// NewInjector builds an injector for the schedule.
func NewInjector(cfg Config) *Injector {
	in := &Injector{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		ops:      make(map[string]int),
		injected: make(map[string]int64),
		counters: make(map[string]*telemetry.Counter),
		nodes:    make(map[string][]func(env sim.Env)),
	}
	if reg := cfg.Telemetry; reg != nil {
		for _, site := range []string{SiteRead, SiteWrite, SiteDelay, SiteConn, SiteFlush, SiteKill} {
			in.counters[site] = reg.Counter("portus_faults_injected_total",
				"faults injected by the test harness", telemetry.L("site", site))
		}
	}
	return in
}

// decide advances site's ordinal and reports whether this op faults.
func (in *Injector) decide(site string, r Rule) bool {
	if !r.enabled() {
		return false
	}
	in.mu.Lock()
	in.ops[site]++
	op := in.ops[site]
	hit := r.To > 0 && op >= r.From && op <= r.To
	if !hit && r.Rate > 0 {
		hit = in.rng.Float64() < r.Rate
	}
	if hit {
		in.injected[site]++
	}
	c := in.counters[site]
	in.mu.Unlock()
	if hit && c != nil {
		c.Inc()
	}
	return hit
}

// Injected reports how many faults fired at site.
func (in *Injector) Injected(site string) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected[site]
}

// Total reports all faults fired across sites.
func (in *Injector) Total() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, v := range in.injected {
		n += v
	}
	return n
}

// RegisterNode associates a storage node name with the teardown hooks
// that make it disappear: typically a fabric route cut
// (rdma.SimFabric.CutNode), a control-plane shutdown
// (wire.SimNet.Shutdown plus closing established conns), and a daemon
// halt (daemon.Daemon.Halt). KillNode runs them in registration order.
func (in *Injector) RegisterNode(name string, teardown ...func(env sim.Env)) {
	in.mu.Lock()
	in.nodes[name] = append(in.nodes[name], teardown...)
	in.mu.Unlock()
}

// KillNode fails a whole storage node at once — fabric routes, control
// connections, worker pool — by running the teardowns registered for
// it. Idempotent: a second kill finds no registered teardowns. The kill
// is counted at SiteKill.
func (in *Injector) KillNode(env sim.Env, name string) {
	in.mu.Lock()
	fns := in.nodes[name]
	delete(in.nodes, name)
	if len(fns) > 0 {
		in.injected[SiteKill]++
	}
	c := in.counters[SiteKill]
	in.mu.Unlock()
	if len(fns) == 0 {
		return
	}
	if c != nil {
		c.Inc()
	}
	for _, fn := range fns {
		fn(env)
	}
}

// Fabric wraps f with the injector's verb schedule.
func (in *Injector) Fabric(f rdma.Fabric) rdma.Fabric {
	return &faultFabric{in: in, inner: f}
}

type faultFabric struct {
	in    *Injector
	inner rdma.Fabric
}

// verbFault runs the shared pre-verb schedule: an optional delay, then
// a transient completion error.
func (f *faultFabric) verbFault(env sim.Env, site string, r Rule) error {
	if f.in.decide(SiteDelay, f.in.cfg.Delay) {
		env.Sleep(f.in.cfg.DelayBy)
	}
	if f.in.decide(site, r) {
		return fmt.Errorf("%w: %s completion error", ErrInjected, site)
	}
	return nil
}

func (f *faultFabric) Read(env sim.Env, local *rdma.Node, l rdma.Slice, r rdma.RemoteSlice) error {
	if err := f.verbFault(env, SiteRead, f.in.cfg.Read); err != nil {
		return err
	}
	return f.inner.Read(env, local, l, r)
}

func (f *faultFabric) Write(env sim.Env, local *rdma.Node, l rdma.Slice, r rdma.RemoteSlice) error {
	if err := f.verbFault(env, SiteWrite, f.in.cfg.Write); err != nil {
		return err
	}
	return f.inner.Write(env, local, l, r)
}

// PostList takes every op's fault decisions, in list order, before
// anything is posted. A faulted op is never sent: it completes with its
// injected error in its place in the list, and the other ops go to the
// wrapped fabric (which must be an rdma.Poster) as one list.
func (f *faultFabric) PostList(env sim.Env, local *rdma.Node, write bool, ops []rdma.Op, done func(i int, err error)) {
	site, rule := SiteRead, f.in.cfg.Read
	if write {
		site, rule = SiteWrite, f.in.cfg.Write
	}
	faulted := make([]error, len(ops))
	pass := make([]rdma.Op, 0, len(ops))
	at := make([]int, 0, len(ops)) // index in ops of each op in pass
	for i, o := range ops {
		if faulted[i] = f.verbFault(env, site, rule); faulted[i] == nil {
			pass = append(pass, o)
			at = append(at, i)
		}
	}
	// The wrapped fabric reports in list order, so when it reports
	// pass[j], every op before it not yet reported is a faulted one.
	next := 0
	f.inner.(rdma.Poster).PostList(env, local, write, pass, func(j int, err error) {
		for ; next < at[j]; next++ {
			done(next, faulted[next])
		}
		done(next, err)
		next++
	})
	for ; next < len(ops); next++ {
		done(next, faulted[next])
	}
}

// Inner returns the wrapped fabric.
func (f *faultFabric) Inner() rdma.Fabric { return f.inner }

func (f *faultFabric) Send(env sim.Env, local *rdma.Node, remote, qp string, payload []byte, size int64) error {
	return f.inner.Send(env, local, remote, qp, payload, size)
}

func (f *faultFabric) Recv(env sim.Env, local *rdma.Node, qp string) ([]byte, int64, error) {
	return f.inner.Recv(env, local, qp)
}

// AddPeer forwards peer-address exchange to the wrapped fabric when it
// supports it (the TCP soft-RDMA transport).
func (f *faultFabric) AddPeer(name, addr string) {
	if pa, ok := f.inner.(interface{ AddPeer(name, addr string) }); ok {
		pa.AddPeer(name, addr)
	}
}

// Conn wraps c with the injector's connection-drop schedule. A firing
// op closes the underlying connection — both directions die, exactly
// like a peer reset — and fails; every later op reports the closed
// connection.
func (in *Injector) Conn(c wire.Conn) wire.Conn {
	return &faultConn{in: in, inner: c}
}

type faultConn struct {
	in    *Injector
	inner wire.Conn

	mu      sync.Mutex
	dropped bool
}

func (c *faultConn) drop() error {
	c.inner.Close()
	return fmt.Errorf("%w: connection dropped: %w", ErrInjected, wire.ErrClosed)
}

func (c *faultConn) Send(env sim.Env, m *wire.Msg) error {
	c.mu.Lock()
	if c.dropped {
		c.mu.Unlock()
		return wire.ErrClosed
	}
	if c.in.decide(SiteConn, c.in.cfg.Conn) {
		c.dropped = true
		c.mu.Unlock()
		return c.drop()
	}
	c.mu.Unlock()
	return c.inner.Send(env, m)
}

func (c *faultConn) Recv(env sim.Env) (*wire.Msg, error) {
	c.mu.Lock()
	if c.dropped {
		c.mu.Unlock()
		return nil, wire.ErrClosed
	}
	if c.in.decide(SiteConn, c.in.cfg.Conn) {
		c.dropped = true
		c.mu.Unlock()
		return nil, c.drop()
	}
	c.mu.Unlock()
	return c.inner.Recv(env)
}

func (c *faultConn) Close() error {
	c.mu.Lock()
	c.dropped = true
	c.mu.Unlock()
	return c.inner.Close()
}

// Flush wraps dev's data-zone flush with the torn-flush schedule: a
// firing flush persists only the first half of the range and reports
// failure, modeling a CLWB batch cut short by a machine check, and
// leaves crc where it was, so the retry that heals it hashes the range
// once. The result plugs into daemon.Config.Flush.
func (in *Injector) Flush(dev *pmem.Device) func(off, n int64, crc *uint32) error {
	return func(off, n int64, crc *uint32) error {
		if in.decide(SiteFlush, in.cfg.Flush) {
			if half := n / 2; half > 0 {
				dev.FlushData(off, half)
			}
			return fmt.Errorf("%w: torn flush of [%d,%d)", ErrInjected, off, off+n)
		}
		dev.FlushDataCRC(off, n, crc)
		return nil
	}
}
