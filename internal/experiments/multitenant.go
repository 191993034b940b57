package experiments

import (
	"fmt"
	"time"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// mtSpec is one multi-tenant training job: small enough that the
// experiment is scheduler-bound, not bandwidth-bound.
func mtSpec(i int) model.Spec {
	return model.GPT(fmt.Sprintf("tenant%02d", i), 4, 512, 1024, 0)
}

// mtRun is one fairness-sweep point.
type mtRun struct {
	tenants    int
	makespan   time.Duration
	throughput float64 // committed checkpoints per virtual second
	meanStall  time.Duration
	fairness   float64 // max/min per-tenant mean checkpoint stall
}

// mtFairness runs `tenants` identical jobs, each checkpointing `rounds`
// times synchronously, against one daemon, and measures per-tenant mean
// checkpoint stall. It panics if any committed checkpoint is lost: every
// tenant's newest durable version must be its final acked iteration.
func mtFairness(tenants, rounds int) mtRun {
	out := mtRun{tenants: tenants}
	runEngine(func(env sim.Env) {
		cfg := voltaConfig()
		cfg.GPUsPerNode = tenants
		tb, err := portus.NewTestbed(env, cfg, func(c *daemon.Config) { c.Workers = 4 })
		if err != nil {
			panic(err)
		}
		type tenant struct {
			m     *portus.Model
			stall time.Duration
		}
		ts := make([]*tenant, tenants)
		for i := 0; i < tenants; i++ {
			m, err := tb.PlaceModel(env, 0, i, mtSpec(i))
			if err != nil {
				panic(err)
			}
			ts[i] = &tenant{m: m}
		}
		start := env.Now()
		g := sim.NewGroup(env)
		for i := range ts {
			i := i
			g.Add(env, 1)
			env.Go("tenant", func(env sim.Env) {
				defer g.Done(env)
				for r := uint64(1); r <= uint64(rounds); r++ {
					ts[i].m.ApplyUpdate(r)
					t0 := env.Now()
					if err := ts[i].m.Checkpoint(env, r); err != nil {
						panic(fmt.Sprintf("tenant %d iteration %d: %v", i, r, err))
					}
					ts[i].stall += env.Now() - t0
				}
			})
		}
		g.Wait(env)
		out.makespan = env.Now() - start
		out.throughput = float64(tenants*rounds) / out.makespan.Seconds()

		var minMean, maxMean, sum time.Duration
		for i, tn := range ts {
			mean := tn.stall / time.Duration(rounds)
			sum += mean
			if i == 0 || mean < minMean {
				minMean = mean
			}
			if mean > maxMean {
				maxMean = mean
			}
			// Zero lost committed checkpoints: the newest durable version
			// is the final iteration the daemon acked.
			m, err := tb.Daemons[0].Store().Lookup(mtSpec(i).Name)
			if err != nil {
				panic(err)
			}
			if _, v, ok := m.LatestDone(); !ok || v.Iteration != uint64(rounds) {
				panic(fmt.Sprintf("tenant %d lost committed checkpoint: latest %v ok=%v, want %d",
					i, v, ok, rounds))
			}
		}
		out.meanStall = sum / time.Duration(tenants)
		if minMean > 0 {
			out.fairness = float64(maxMean) / float64(minMean)
		} else {
			out.fairness = 1
		}
	})
	return out
}

// mtPressure drives the scheduler past its bounds: one tenant bursts
// async checkpoints faster than the single worker drains (stale
// iterations must coalesce to the newest), while three more tenants
// overflow a tiny global queue (the daemon must answer BUSY and the
// clients must heal through retry). Returns the observability counters
// and the per-tenant committed frontier.
func mtPressure() (coalesced, busyReplies, clientRetries int64, committed map[string]uint64) {
	committed = make(map[string]uint64)
	runEngine(func(env sim.Env) {
		reg := telemetry.NewRegistry()
		cfg := voltaConfig()
		cfg.GPUsPerNode = 4
		tb, err := portus.NewTestbed(env, cfg, func(c *daemon.Config) {
			c.Workers = 1
			c.QueueCap = 2
			c.ModelQueueCap = 1
			c.Telemetry = reg
		})
		if err != nil {
			panic(err)
		}
		// Clients count into the same registry: their BUSY retries are
		// read back from it below.
		clients := make([]*portus.Model, 4)
		for i := range clients {
			clients[i], err = tb.PlaceModelOpts(env, 0, i, mtSpec(i), portus.ClientOptions{Telemetry: reg})
			if err != nil {
				panic(err)
			}
		}
		bursts := []uint64{8, 3, 3, 3}
		g := sim.NewGroup(env)
		for i, burst := range bursts {
			i, burst := i, burst
			g.Add(env, 1)
			env.Go("burst", func(env sim.Env) {
				defer g.Done(env)
				clients[i].ApplyUpdate(burst)
				var cps []*client.Completion
				for it := uint64(1); it <= burst; it++ {
					cp, err := clients[i].CheckpointAsync(env, it)
					if err != nil {
						panic(err)
					}
					cps = append(cps, cp)
				}
				for it, cp := range cps {
					if err := cp.Wait(env); err != nil {
						panic(fmt.Sprintf("tenant %d iteration %d under pressure: %v", i, it+1, err))
					}
				}
			})
		}
		g.Wait(env)
		coalesced = reg.Counter("portus_sched_coalesced_total", "").Value()
		busyReplies = reg.Counter("portus_sched_busy_replies_total", "").Value()
		for i, burst := range bursts {
			clientRetries += reg.Counter("portus_client_busy_retries_total", "", telemetry.L("model", mtSpec(i).Name)).Value()
			m, err := tb.Daemons[0].Store().Lookup(mtSpec(i).Name)
			if err != nil {
				panic(err)
			}
			_, v, ok := m.LatestDone()
			if !ok || v.Iteration != burst {
				panic(fmt.Sprintf("tenant %d lost committed checkpoint under pressure: latest %v ok=%v, want %d",
					i, v, ok, burst))
			}
			committed[mtSpec(i).Name] = v.Iteration
		}
	})
	return coalesced, busyReplies, clientRetries, committed
}

// Multitenant evaluates the fair scheduler under concurrent jobs: a
// 1–16 tenant sweep reporting aggregate checkpoint throughput and the
// max/min fairness ratio, then a pressure run proving stale-request
// coalescing and BUSY backpressure are observable and lossless.
func Multitenant() []*Table {
	const rounds = 6
	sweep := &Table{
		ID:     "multitenant-sweep",
		Title:  fmt.Sprintf("Concurrent identical tenants, %d sync checkpoints each (fair policy, 4 workers)", rounds),
		Header: []string{"Tenants", "Makespan", "Aggregate ckpt/s", "Mean stall", "Fairness (max/min)"},
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		r := mtFairness(n, rounds)
		sweep.Rows = append(sweep.Rows, []string{
			fmt.Sprint(n), secs(r.makespan), fmt.Sprintf("%.1f", r.throughput),
			fmt.Sprintf("%.3fms", float64(r.meanStall)/float64(time.Millisecond)),
			fmt.Sprintf("%.2f", r.fairness),
		})
		if n == 8 && r.fairness > 2.0 {
			panic(fmt.Sprintf("fairness ratio %.2f at 8 tenants exceeds the 2.0 bound", r.fairness))
		}
	}
	sweep.Notes = append(sweep.Notes,
		"per-model FIFO lanes + weighted-fair ring: identical tenants see near-identical mean stall",
		"every tenant's newest durable version equals its final acked iteration (zero lost commits; verified)",
	)

	coalesced, busy, retries, committed := mtPressure()
	lost := 0
	for _, iter := range committed {
		if iter == 0 {
			lost++
		}
	}
	pressure := &Table{
		ID:     "multitenant-pressure",
		Title:  "Overload behavior: 1 bursting + 3 contending tenants, 1 worker, global queue cap 2",
		Header: []string{"Signal", "Value"},
		Rows: [][]string{
			{"portus_sched_coalesced_total", fmt.Sprint(coalesced)},
			{"portus_sched_busy_replies_total", fmt.Sprint(busy)},
			{"client busy retries (sum)", fmt.Sprint(retries)},
			{"tenants with lost commits", fmt.Sprint(lost)},
		},
		Notes: []string{
			"stale checkpoint requests coalesce to the newest iteration instead of queuing; superseded waiters are still acked",
			"overflow is answered with BUSY + retry-after, and client backoff heals every bounced request — no waiter is lost",
		},
	}
	return []*Table{sweep, pressure}
}
