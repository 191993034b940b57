package experiments

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

// ChurnSeed fixes the tenant size schedule so `make churn`, CI, and the
// regression test replay the exact same admission pressure.
const ChurnSeed = 1337

const (
	// churnCapacity is the data-zone size the churn deliberately
	// overflows (cumulatively, never concurrently).
	churnCapacity = 4 << 30
	// churnWaves x churnTenantsPerWave register/checkpoint/delete
	// lifecycles run against that one namespace.
	churnWaves          = 5
	churnTenantsPerWave = 6
	// churnCheckpoints per tenant before its restore proof and delete.
	churnCheckpoints = 3
)

// ChurnOutcome is the measured behavior of one churn run.
type ChurnOutcome struct {
	Tenants int
	// AdmittedBytes is the cumulative slot allocation demand (2x model
	// size per registration); OverflowFactor divides it by capacity.
	AdmittedBytes  int64
	OverflowFactor float64
	// NoSpaceReplies counts transient NO_SPACE retry-afters the daemon
	// issued — backpressure, not failures.
	NoSpaceReplies int64
	// RepackRuns and BytesMoved are the engine's online reclamation
	// activity; the run is only meaningful if RepackRuns > 0.
	RepackRuns int64
	BytesMoved int64
	// Verified counts tenants whose final restore was byte-identical;
	// Deleted counts completed lifecycles. Both must equal Tenants.
	Verified int64
	Deleted  int64
	// FragPeak is the worst fragmented-bytes reading observed between
	// waves.
	FragPeak int64
}

// churnSpec sizes one tenant deterministically from the shared rng:
// 256-512 MiB across four tensors. A wave's combined slot demand
// (6 tenants x 2 slots x ~384 MiB ~= 4.5 GiB) deliberately exceeds the
// 4 GiB zone, so late registrants in a wave really do bounce off
// NO_SPACE and retry until earlier tenants delete — while any single
// model (<= 1 GiB of slots) always fits, so admission is never
// permanently infeasible.
func churnSpec(rng *rand.Rand, wave, i int) model.Spec {
	total := (256 + rng.Int63n(257)) << 20
	name := fmt.Sprintf("churn-%d-%d", wave, i)
	spec := model.Spec{Name: name, IterTime: time.Millisecond}
	per := total / 4 / 4 * 4
	for t := 0; t < 4; t++ {
		size := per
		if t == 3 {
			size = total - 3*per
		}
		spec.Tensors = append(spec.Tensors, index.TensorMeta{
			Name:  fmt.Sprintf("%s.layer.%d.weight", name, t),
			DType: index.F32,
			Dims:  []int64{size / 4},
			Size:  size,
		})
	}
	return spec
}

// RunChurn drives tenant churn against one deliberately undersized
// namespace: waves of tenants register, checkpoint, prove a
// byte-identical restore, and delete, with cumulative admission demand
// ~3x the 4 GiB data zone. Admission must never permanently fail while
// live bytes fit capacity — out-of-space registrations are answered
// with transient NO_SPACE retry-afters while the engine reclaims — no
// committed checkpoint may be lost, and at least one online repack pass
// must run concurrent with live traffic. Any violated invariant panics
// so `make churn` and CI fail loudly.
func RunChurn(seed int64) ChurnOutcome {
	var out ChurnOutcome
	runEngine(func(env sim.Env) {
		reg := telemetry.NewRegistry()
		tb, err := portus.NewTestbed(env, portus.TestbedConfig{
			ComputeNodes: 1, GPUsPerNode: 4,
			GPUMemBytes: 16 << 30, PMemBytes: churnCapacity,
			Materialized: false,
		}, func(c *daemon.Config) {
			c.Workers = 4
			// A wave's deletes trip the 0.5 fragmentation watermark, so
			// background passes overlap the next wave's traffic; the
			// ErrNoSpace reclaim path stays armed regardless.
			c.Telemetry = reg
		})
		if err != nil {
			panic(err)
		}
		d := tb.Daemons[0]

		// The rng is drained up front so tenant goroutines never race on
		// it; the schedule is a pure function of the seed.
		rng := rand.New(rand.NewSource(seed))
		specs := make([][]model.Spec, churnWaves)
		for w := range specs {
			specs[w] = make([]model.Spec, churnTenantsPerWave)
			for i := range specs[w] {
				specs[w][i] = churnSpec(rng, w, i)
				out.AdmittedBytes += 2 * specs[w][i].TotalSize()
				out.Tenants++
			}
		}

		for w := 0; w < churnWaves; w++ {
			g := sim.NewGroup(env)
			for i := 0; i < churnTenantsPerWave; i++ {
				spec := specs[w][i]
				gpuIdx := i % 4
				g.Add(env, 1)
				env.Go("churn-tenant", func(env sim.Env) {
					defer g.Done(env)
					churnTenant(env, tb, reg, spec, gpuIdx, &out)
				})
			}
			g.Wait(env)
			if frag := d.Engine().Stats().Frag; frag > out.FragPeak {
				out.FragPeak = frag
			}
		}

		out.NoSpaceReplies = reg.Counter("portus_store_nospace_replies_total", "").Value()
		out.RepackRuns = d.Engine().RepackRuns()
		out.BytesMoved = reg.Counter("portus_store_repack_moved_bytes_total", "").Value()
		out.OverflowFactor = float64(out.AdmittedBytes) / float64(churnCapacity)

		if out.Verified != int64(out.Tenants) {
			panic(fmt.Sprintf("churn: %d/%d tenants verified a byte-identical restore — a committed checkpoint was lost",
				out.Verified, out.Tenants))
		}
		if out.Deleted != int64(out.Tenants) {
			panic(fmt.Sprintf("churn: %d/%d tenant lifecycles completed", out.Deleted, out.Tenants))
		}
		if out.RepackRuns == 0 {
			panic("churn: no online repack pass ran despite 3x cumulative overflow")
		}
		if out.OverflowFactor < 3 {
			panic(fmt.Sprintf("churn: cumulative demand only %.2fx capacity, want >= 3x", out.OverflowFactor))
		}
	})
	return out
}

// churnTenant is one register -> checkpoint -> restore-verify -> delete
// lifecycle. Every failure is a violated invariant: admission and
// checkpoints must ride out NO_SPACE and BUSY backpressure via
// retry-afters, never surface an error.
func churnTenant(env sim.Env, tb *portus.Testbed, reg *telemetry.Registry, spec model.Spec, gpuIdx int, out *ChurnOutcome) {
	m, err := tb.PlaceModelOpts(env, 0, gpuIdx, spec, portus.ClientOptions{
		Telemetry: reg,
		// Registrations bounce off NO_SPACE while another tenant's
		// delete or a repack pass frees room; the budget must outlast a
		// whole wave of competitors.
		BusyRetryMax: 1000,
		BusyBackoff:  200 * time.Microsecond,
	})
	if err != nil {
		panic(fmt.Sprintf("churn: %s: admission permanently failed: %v", spec.Name, err))
	}
	for it := uint64(1); it <= churnCheckpoints; it++ {
		m.ApplyUpdate(it)
		if err := m.Checkpoint(env, it); err != nil {
			panic(fmt.Sprintf("churn: %s: checkpoint %d: %v", spec.Name, it, err))
		}
	}
	// Scramble the GPU and prove the newest committed version restores
	// byte-identical — including after its extents were relocated by an
	// online repack pass running under other tenants' traffic.
	m.ApplyUpdate(churnCheckpoints + 1000)
	iter, err := m.Restore(env)
	if err != nil {
		panic(fmt.Sprintf("churn: %s: restore: %v", spec.Name, err))
	}
	if iter != churnCheckpoints {
		panic(fmt.Sprintf("churn: %s: restored iteration %d, want %d", spec.Name, iter, churnCheckpoints))
	}
	if bad := m.Placed().VerifyIteration(iter); bad != -1 {
		panic(fmt.Sprintf("churn: %s: tensor %d not byte-identical after restore", spec.Name, bad))
	}
	atomic.AddInt64(&out.Verified, 1)
	m.Close()

	// Delete over a fresh control connection, riding out the window
	// where the lane still drains.
	dconn, err := tb.Dial(env)
	if err != nil {
		panic(err)
	}
	defer dconn.Close()
	for attempt := 0; ; attempt++ {
		resp, err := wire.Call(env, dconn, &wire.Msg{Type: wire.TDelete, Model: spec.Name}, wire.TDeleteOK)
		if err == nil {
			break
		}
		if resp == nil { // transport failure, not a refusal to ride out
			panic(err)
		}
		if attempt > 50 {
			panic(fmt.Sprintf("churn: %s: delete kept failing: %s", spec.Name, resp.Error))
		}
		env.Sleep(500 * time.Microsecond)
	}
	atomic.AddInt64(&out.Deleted, 1)
}

// Churn reports the admission-under-exhaustion drill as a table.
func Churn() []*Table {
	o := RunChurn(ChurnSeed)
	t := &Table{
		ID:    "churn",
		Title: "Tenant churn against an undersized namespace with online reclamation",
		Header: []string{"tenants", "demand", "overflow", "no-space replies",
			"repack runs", "bytes moved", "frag peak", "verified", "deleted"},
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(o.Tenants),
		fmt.Sprintf("%.1f GiB", float64(o.AdmittedBytes)/(1<<30)),
		fmt.Sprintf("%.2fx", o.OverflowFactor),
		fmt.Sprint(o.NoSpaceReplies),
		fmt.Sprint(o.RepackRuns),
		fmt.Sprintf("%.1f MiB", float64(o.BytesMoved)/(1<<20)),
		fmt.Sprintf("%.1f MiB", float64(o.FragPeak)/(1<<20)),
		fmt.Sprintf("%d/%d", o.Verified, o.Tenants),
		fmt.Sprintf("%d/%d", o.Deleted, o.Tenants),
	})
	t.Notes = append(t.Notes,
		fmt.Sprintf("seed %d: %d waves of %d tenants register/checkpoint/delete 256-512 MiB models against one %d GiB namespace",
			ChurnSeed, churnWaves, churnTenantsPerWave, churnCapacity>>30),
		"every out-of-space registration was answered with a transient NO_SPACE retry-after while the engine reclaimed; zero admissions failed permanently and zero committed checkpoints were lost",
	)
	return []*Table{t}
}
