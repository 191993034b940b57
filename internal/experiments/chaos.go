package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// ChaosSeed fixes the fault schedule so `make chaos`, CI, and the
// regression test replay the exact same fault sequence.
const ChaosSeed = 1337

// chaosCheckpoints is the checkpoint stream length per fault rate.
const chaosCheckpoints = 40

const chaosModelName = "chaos-gpt"

func chaosSpec() model.Spec {
	return model.GPT(chaosModelName, 2, 64, 512, 10*time.Millisecond)
}

// ChaosOutcome is one fault rate's measured behavior.
type ChaosOutcome struct {
	Rate       float64
	Attempted  int
	Committed  int
	FailedLoud int
	// Lost counts crash-consistency violations: steps where the newest
	// complete version on PMem was older than a checkpoint the client
	// had been told committed. The whole point is that this stays 0.
	Lost         int
	Faults       int64
	Retries      int64
	Reconnects   int64
	Dedups       int64
	RestoredIter uint64
	RestoredOK   bool
	// Goodput is committed checkpoints per virtual second of the run.
	Goodput float64
	// ScrapeOK reports that the fault/retry/reconnect series all appear
	// in the Prometheus rendering of the run's registry.
	ScrapeOK bool
}

// RunChaos drives one fault rate: a materialized single-GPU rig with
// faults injected at every layer — one-sided verb errors, dropped
// control connections, and torn PMem flushes — while a training loop
// checkpoints every iteration. After the stream it scrambles the GPU
// and proves the newest complete version restores bit-exactly.
func RunChaos(seed int64, rate float64, checkpoints int) ChaosOutcome {
	out := ChaosOutcome{Rate: rate}
	runEngine(func(env sim.Env) {
		reg := telemetry.NewRegistry()
		inj := faults.NewInjector(faults.Config{
			Seed:      seed,
			Read:      faults.Rule{Rate: rate},
			Write:     faults.Rule{Rate: rate},
			Flush:     faults.Rule{Rate: rate},
			Conn:      faults.Rule{Rate: rate},
			Telemetry: reg,
		})
		tb, err := portus.NewTestbed(env, portus.TestbedConfig{
			ComputeNodes: 1, GPUsPerNode: 1,
			GPUMemBytes: 64 << 20, PMemBytes: 512 << 20,
			Materialized: true,
		}, func(c *daemon.Config) {
			c.Fabric = inj.Fabric(c.Fabric)
			c.Workers = 2
			c.ChunkSize = 64 << 10
			c.RetryMax = 6
			c.RetryBackoff = 50 * time.Microsecond
			c.Flush = inj.Flush(c.PMem)
			c.Telemetry = reg
		})
		if err != nil {
			panic(err)
		}
		dial := func(env sim.Env) (wire.Conn, error) {
			conn, err := tb.Dial(env)
			if err != nil {
				return nil, err
			}
			return inj.Conn(conn), nil
		}
		m, err := tb.PlaceModelOpts(env, 0, 0, chaosSpec(), portus.ClientOptions{
			Telemetry:        reg,
			Dialer:           dial,
			ReconnectMax:     20,
			ReconnectBackoff: 500 * time.Microsecond,
		})
		if err != nil {
			panic(err)
		}
		placed := m.Placed()

		var maxCommitted uint64
		for i := uint64(1); i <= uint64(checkpoints); i++ {
			placed.ApplyUpdate(i)
			out.Attempted++
			if err := m.Checkpoint(env, i); err != nil {
				out.FailedLoud++
			} else {
				out.Committed++
				if i > maxCommitted {
					maxCommitted = i
				}
			}
			// The invariant under fire: every checkpoint the client was
			// told committed is covered by a complete version on PMem.
			if im, err := tb.Daemons[0].Store().Lookup(chaosModelName); err == nil && maxCommitted > 0 {
				if _, v, ok := im.LatestDone(); !ok || v.Iteration < maxCommitted {
					out.Lost++
				}
			}
		}
		out.Goodput = float64(out.Committed) / env.Now().Seconds()

		// Prove the newest complete version is restorable: scramble the
		// GPU, restore (retrying through injected faults), and verify
		// every tensor holds the restored iteration's exact content.
		placed.ApplyUpdate(uint64(checkpoints) + 1000)
		var iter uint64
		restoreErr := fmt.Errorf("no restore attempted")
		for attempt := 0; attempt < 10 && restoreErr != nil; attempt++ {
			iter, restoreErr = m.Restore(env)
		}
		if restoreErr == nil && iter >= maxCommitted && placed.VerifyIteration(iter) == -1 {
			out.RestoredOK = true
			out.RestoredIter = iter
		}

		out.Faults = inj.Total()
		events := tb.Daemons[0].Events()
		out.Retries = int64(events.Count(telemetry.EvDatapathRetry))
		out.Dedups = int64(events.Count(telemetry.EvSchedDedup))
		out.Reconnects = m.Reconnects()

		var scrape strings.Builder
		reg.WritePrometheus(&scrape)
		s := scrape.String()
		out.ScrapeOK = strings.Contains(s, "portus_faults_injected_total") &&
			strings.Contains(s, `portus_events_total{kind="datapath.retry"}`) &&
			strings.Contains(s, "portus_client_reconnects_total")
	})
	return out
}

// Chaos sweeps fault rates over the full stack and reports checkpoint
// goodput, healing activity, and the recoverability proof at each rate.
func Chaos() []*Table {
	t := &Table{
		ID:    "chaos",
		Title: "Checkpoint goodput and recoverability under injected faults",
		Header: []string{"fault rate", "ckpts", "committed", "loud fails", "lost",
			"faults", "retries", "reconnects", "dedups", "restored", "goodput ckpt/s"},
	}
	for _, rate := range []float64{0, 0.05, 0.10, 0.20} {
		o := RunChaos(ChaosSeed, rate, chaosCheckpoints)
		restored := "FAIL"
		if o.RestoredOK {
			restored = fmt.Sprintf("iter %d ok", o.RestoredIter)
		}
		t.Rows = append(t.Rows, []string{
			pct(o.Rate), fmt.Sprint(o.Attempted), fmt.Sprint(o.Committed),
			fmt.Sprint(o.FailedLoud), fmt.Sprint(o.Lost), fmt.Sprint(o.Faults),
			fmt.Sprint(o.Retries), fmt.Sprint(o.Reconnects),
			fmt.Sprint(o.Dedups), restored, fmt.Sprintf("%.1f", o.Goodput),
		})
		if !o.ScrapeOK {
			t.Notes = append(t.Notes, fmt.Sprintf("rate %s: healing counters missing from the Prometheus scrape", pct(rate)))
		}
		if o.Lost > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("rate %s: INVARIANT VIOLATED — a committed checkpoint was lost", pct(rate)))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("seed %d: verb errors, dropped control connections, and torn flushes injected at the stated rate", ChaosSeed),
		"\"lost\" counts steps where PMem's newest complete version was older than an acknowledged checkpoint — zero means every failure either healed or failed loudly with the previous version restorable",
	)
	return []*Table{t}
}
