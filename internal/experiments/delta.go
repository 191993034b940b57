// The delta experiment measures incremental checkpointing end to end:
// GPT-1.5B checkpointed at 1/5/25/100% per-iteration block mutation
// rates, against a full-checkpoint baseline on the identical rig. The
// acceptance bars are the ISSUE-10 criteria: at 1% mutation the fabric
// moves <= 15% of a full checkpoint's bytes and the end-to-end
// checkpoint time sits strictly below the full baseline; at 100% the
// daemon falls back to full pulls (a delta would move more bytes than
// a full pass); and a replicated tier running deltas survives a
// mid-run node kill with byte-identical degraded restores.

package experiments

import (
	"fmt"
	"time"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/metrics"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
)

const (
	// deltaBlockBytes is the digest granularity of the sweep (the
	// subsystem's default, 64 KiB).
	deltaBlockBytes = 64 << 10
	// deltaWarmups is how many checkpoints precede measurement: the
	// first bootstraps the digest table, the second populates the other
	// slot's table so the skip oracle is armed (deltas engage from the
	// third checkpoint on).
	deltaWarmups = 2
	// deltaMeasured is the steady-state checkpoints averaged per point.
	deltaMeasured = 3
	// deltaBytesCeiling: fabric bytes per 1%-dirty checkpoint must stay
	// under this fraction of a full checkpoint (acceptance bar; the CI
	// gate in cmd/portus-bench additionally fails below 50% savings).
	deltaBytesCeiling = 0.15
)

// deltaPoint is one sweep measurement: steady-state per-checkpoint
// fabric bytes and end-to-end time at a given block mutation rate.
type deltaPoint struct {
	Rate      float64
	Digests   bool
	Total     int64 // model size = one full checkpoint's payload
	PerCkpt   time.Duration
	Pulled    int64 // fabric bytes per measured checkpoint
	Fallbacks int64
	RestoreOK bool
}

// runDeltaPoint streams sparse updates at rate through a delta-enabled
// daemon and measures the steady-state checkpoints. withDigests toggles
// only the client's digest computation, so the baseline runs the
// identical daemon configuration.
func runDeltaPoint(rate float64, withDigests bool) deltaPoint {
	spec := model.GPTFamily()[0] // gpt-1.5b
	pt := deltaPoint{Rate: rate, Digests: withDigests, Total: spec.TotalSize()}
	runEngine(func(env sim.Env) {
		tb, err := portus.NewTestbed(env, voltaConfig())
		if err != nil {
			panic(err)
		}
		var opts portus.ClientOptions
		if withDigests {
			opts.DeltaBlockBytes = deltaBlockBytes
		}
		m, err := tb.PlaceModelOpts(env, 0, 0, spec, opts)
		if err != nil {
			panic(err)
		}
		placed, d := m.Placed(), tb.Daemons[0]
		update := func(it uint64) {
			if it == 1 {
				placed.ApplyUpdate(it) // initial weights: everything is new
			} else {
				placed.ApplySparseUpdate(it, deltaBlockBytes, rate)
			}
		}
		it := uint64(0)
		for w := 0; w < deltaWarmups; w++ {
			it++
			update(it)
			if err := m.Checkpoint(env, it); err != nil {
				panic(fmt.Sprintf("delta: warmup checkpoint %d: %v", it, err))
			}
		}
		startBytes := d.Stats().BytesPulled
		startFB := d.Telemetry().Counter("portus_delta_full_fallbacks_total", "").Value()
		start := env.Now()
		for n := 0; n < deltaMeasured; n++ {
			it++
			update(it)
			if err := m.Checkpoint(env, it); err != nil {
				panic(fmt.Sprintf("delta: checkpoint %d: %v", it, err))
			}
		}
		pt.PerCkpt = (env.Now() - start) / deltaMeasured
		pt.Pulled = (d.Stats().BytesPulled - startBytes) / deltaMeasured
		pt.Fallbacks = d.Telemetry().Counter("portus_delta_full_fallbacks_total", "").Value() - startFB

		// The last (delta-assembled) version restores byte-identical: the
		// restored content's digests match what the GPU held at commit.
		want := placed.BlockDigests(deltaBlockBytes)
		placed.ApplyUpdate(999999) // scramble
		iter, err := m.Restore(env)
		if err != nil || iter != it {
			panic(fmt.Sprintf("delta: restore at rate %.2f: iter %d, err %v", rate, iter, err))
		}
		pt.RestoreOK = placed.VerifyDigests(deltaBlockBytes, want) == -1
		if !pt.RestoreOK {
			panic(fmt.Sprintf("delta: restore at rate %.2f not byte-identical", rate))
		}
		m.Close()
	})
	return pt
}

// The replicated-tier scenario: a 2×2-sharded GPT on a 4-node tier at
// rf=2, streaming sparse updates as incremental checkpoints, with one
// storage node killed mid-checkpoint. The survivors must keep
// committing deltas and the degraded restore must come back
// byte-identical from the surviving replicas.
const (
	deltaTierRF     = 2
	deltaTierNodes  = 4
	deltaTierBlock  = int64(4 << 10) // small model, small blocks
	deltaTierRate   = 0.05
	deltaTierIters  = 8
	deltaTierKillAt = 5
)

// deltaTierOutcome is the replication scenario's verdict.
type deltaTierOutcome struct {
	Victim            string
	CommittedFinal    uint64
	BytesSaved        int64 // summed over surviving daemons
	DegradedRestoreOK bool
}

func runDeltaTier() deltaTierOutcome {
	var out deltaTierOutcome
	spec := model.GPT("delta-gpt", 2, 64, 512, 10*time.Millisecond)
	runEngine(func(env sim.Env) {
		inj := faults.NewInjector(faults.Config{Seed: ChaosSeed})
		tb, err := portus.NewTestbed(env, portus.TestbedConfig{
			ComputeNodes: 1, GPUsPerNode: 4,
			GPUMemBytes:  64 << 20,
			StorageNodes: deltaTierNodes, PMemBytes: 256 << 20,
			Materialized: true, Replicas: deltaTierRF,
		})
		if err != nil {
			panic(err)
		}
		for i, st := range tb.Cluster.Storage {
			st, d := st, tb.Daemons[i]
			inj.RegisterNode(st.Name,
				func(env sim.Env) { tb.Cluster.Fabric.CutNode(st.Name) },
				func(env sim.Env) { tb.Net().Shutdown(env, st.Name) },
				func(env sim.Env) { d.Halt(env) },
			)
		}
		sm, err := tb.PlaceSharded(env, spec, 2, 2, portus.RouterOptions{
			Replicas: deltaTierRF,
			Client:   portus.ClientOptions{DeltaBlockBytes: deltaTierBlock},
		})
		if err != nil {
			panic(err)
		}
		defer sm.Close()
		rt := sm.Router()
		placed := make([]*gpu.PlacedModel, len(sm.Shards()))
		for i := range placed {
			placed[i] = sm.Placed(i)
		}
		out.Victim = rt.Members()[0].Node
		apply := func(it uint64) {
			for _, p := range placed {
				if it == 1 {
					p.ApplyUpdate(it)
				} else {
					p.ApplySparseUpdate(it, deltaTierBlock, deltaTierRate)
				}
			}
		}
		for it := uint64(1); it <= deltaTierIters; it++ {
			apply(it)
			if it == deltaTierKillAt {
				// Kill the victim while the fan-out is in flight; the group
				// may or may not commit this iteration, but nothing may
				// regress and the survivors must carry the stream on.
				gc, err := rt.CheckpointAsync(env, it)
				if err != nil {
					panic(fmt.Sprintf("delta tier: fan-out %d: %v", it, err))
				}
				inj.KillNode(env, out.Victim)
				_ = gc.Wait(env)
			} else if err := rt.CheckpointSync(env, it); err != nil {
				panic(fmt.Sprintf("delta tier: checkpoint %d (victim %s dead since %d): %v",
					it, out.Victim, deltaTierKillAt, err))
			}
		}
		out.CommittedFinal = rt.Manifest().Committed()
		if out.CommittedFinal != deltaTierIters {
			panic(fmt.Sprintf("delta tier: committed %d, want %d", out.CommittedFinal, deltaTierIters))
		}
		// Deltas genuinely ran on the tier: surviving daemons banked
		// copy-forward/skip savings.
		for i, st := range tb.Cluster.Storage {
			if st.Name == out.Victim {
				continue
			}
			out.BytesSaved += tb.Daemons[i].Telemetry().Counter("portus_delta_bytes_saved_total", "").Value()
		}
		if out.BytesSaved <= 0 {
			panic("delta tier: no delta savings recorded — the replicated stream ran full checkpoints only")
		}

		// Degraded restore with the victim still dead: every shard comes
		// back byte-identical from a surviving replica.
		wants := make([][]uint64, len(placed))
		for i, p := range placed {
			wants[i] = p.BlockDigests(deltaTierBlock)
		}
		apply(7777) // scramble
		iter, err := rt.Restore(env)
		if err != nil || iter != deltaTierIters {
			panic(fmt.Sprintf("delta tier: degraded restore: iter %d, err %v", iter, err))
		}
		out.DegradedRestoreOK = true
		for i, p := range placed {
			if bad := p.VerifyDigests(deltaTierBlock, wants[i]); bad != -1 {
				out.DegradedRestoreOK = false
				panic(fmt.Sprintf("delta tier: shard %d block %d mismatched after degraded restore", i, bad))
			}
		}
	})
	return out
}

// DeltaSavings computes the 1%-dirty fabric-byte savings fraction vs a
// full checkpoint — the number the perf-smoke CI gate thresholds.
func DeltaSavings(p1, full deltaPoint) float64 {
	if full.Pulled == 0 {
		return 0
	}
	return 1 - float64(p1.Pulled)/float64(full.Pulled)
}

// RunDeltaSweep measures the full baseline plus every mutation-rate
// point and enforces the acceptance bars. Exported so cmd/portus-bench
// can gate CI on the same numbers the table renders.
func RunDeltaSweep() (full deltaPoint, points []deltaPoint) {
	full = runDeltaPoint(0.01, false)
	for _, rate := range []float64{0.01, 0.05, 0.25, 1.00} {
		points = append(points, runDeltaPoint(rate, true))
	}
	p1 := points[0]
	if got := float64(p1.Pulled) / float64(p1.Total); got > deltaBytesCeiling {
		panic(fmt.Sprintf("delta: 1%%-dirty checkpoint moved %.1f%% of the model over the fabric, want <= %.0f%%",
			100*got, 100*deltaBytesCeiling))
	}
	if p1.PerCkpt >= full.PerCkpt {
		panic(fmt.Sprintf("delta: 1%%-dirty checkpoint took %s, not strictly below the full baseline %s",
			p1.PerCkpt, full.PerCkpt))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Pulled < points[i-1].Pulled {
			panic(fmt.Sprintf("delta: fabric bytes not monotonic in dirty rate (%.0f%% pulled %d < %.0f%% pulled %d)",
				100*points[i].Rate, points[i].Pulled, 100*points[i-1].Rate, points[i-1].Pulled))
		}
	}
	dense := points[len(points)-1]
	if dense.Fallbacks < deltaMeasured {
		panic(fmt.Sprintf("delta: 100%%-dirty stream fell back %d times, want every measured checkpoint (%d)",
			dense.Fallbacks, deltaMeasured))
	}
	if dense.Pulled != dense.Total {
		panic(fmt.Sprintf("delta: 100%%-dirty checkpoint pulled %d bytes, want the full model %d",
			dense.Pulled, dense.Total))
	}
	return full, points
}

// Delta renders the incremental-checkpointing evaluation: the mutation
// rate sweep against the full baseline, and the replicated-tier
// node-kill scenario.
func Delta() []*Table {
	full, points := RunDeltaSweep()
	sweep := &Table{
		ID: "delta",
		Title: fmt.Sprintf("Incremental checkpointing: GPT-1.5B (%s), %d KiB blocks, steady state over %d checkpoints",
			metrics.FormatBytes(full.Total), deltaBlockBytes>>10, deltaMeasured),
		Header: []string{"Mutation rate", "Fabric bytes/ckpt", "Of full", "Ckpt time", "Speedup", "Fallbacks"},
	}
	row := func(label string, p deltaPoint) {
		sweep.Rows = append(sweep.Rows, []string{
			label,
			metrics.FormatBytes(p.Pulled),
			pct(float64(p.Pulled) / float64(p.Total)),
			secs(p.PerCkpt),
			ratio(full.PerCkpt, p.PerCkpt),
			fmt.Sprint(p.Fallbacks),
		})
	}
	row("full (no digests)", full)
	for _, p := range points {
		row(pct(p.Rate), p)
	}
	sweep.Notes = append(sweep.Notes,
		fmt.Sprintf("1%%-dirty fabric savings vs full: %s (CI gate: >= 50%%)", pct(DeltaSavings(points[0], full))),
		"clean blocks copy forward previous-slot->target-slot inside PMem; blocks the target already holds are skipped",
		"100% mutation falls back to full pulls: the delta plan would move more bytes than a full pass",
		"every point's final (delta-assembled) version restored byte-identical, digest-verified")

	o := runDeltaTier()
	tier := &Table{
		ID: "delta-tier",
		Title: fmt.Sprintf("Incremental checkpoints on a replicated tier: %d nodes, rf=%d, node %q killed at iteration %d",
			deltaTierNodes, deltaTierRF, o.Victim, deltaTierKillAt),
		Header: []string{"phase", "verdict"},
	}
	tier.Rows = append(tier.Rows,
		[]string{fmt.Sprintf("stream to iteration %d under deltas", o.CommittedFinal), "every surviving checkpoint group-committed"},
		[]string{"delta savings on survivors", metrics.FormatBytes(o.BytesSaved)},
		[]string{"degraded restore (victim dead)", "byte-identical from surviving replicas, digest-verified"},
	)
	tier.Notes = append(tier.Notes,
		"each replica runs its delta independently against its own slot tables; CRC verification at restore is unchanged")
	return []*Table{sweep, tier}
}
