package experiments

import (
	"fmt"
	"time"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/metrics"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
)

// AblationStaging compares the zero-copy pull against landing in server
// DRAM first (the design every RPC-based store is forced into).
func AblationStaging() []*Table {
	bert := model.TableII()[6]
	zero := measurePortus(bert, voltaConfig())
	staged := measurePortus(bert, voltaConfig(), withHostStaging)
	t := &Table{
		ID:     "ablation-staging",
		Title:  "Zero-copy pull vs host-DRAM staging (BERT-Large checkpoint)",
		Header: []string{"Datapath", "Checkpoint time", "Slowdown"},
		Rows: [][]string{
			{"GPU -> PMem (zero-copy)", metrics.FormatDuration(zero.ckpt), "1.00x"},
			{"GPU -> server DRAM -> PMem", metrics.FormatDuration(staged.ckpt), ratio(staged.ckpt, zero.ckpt)},
		},
		Notes: []string{"staging serializes a second pass at PMem write bandwidth behind every pull"},
	}
	return []*Table{t}
}

// AblationOneSided compares the one-sided READ data plane against a
// two-sided SEND/RECV protocol (what RPC-over-RDMA filesystems use).
func AblationOneSided() []*Table {
	bert := model.TableII()[6]
	one := measurePortus(bert, voltaConfig())
	two := measurePortus(bert, voltaConfig(), withTwoSided)
	t := &Table{
		ID:     "ablation-onesided",
		Title:  "One-sided vs two-sided data plane (BERT-Large checkpoint)",
		Header: []string{"Protocol", "Checkpoint time", "Slowdown"},
		Rows: [][]string{
			{"one-sided RDMA READ", metrics.FormatDuration(one.ckpt), "1.00x"},
			{"two-sided SEND/RECV (RPC-style)", metrics.FormatDuration(two.ckpt), ratio(two.ckpt, one.ckpt)},
		},
		Notes: []string{"two-sided adds rendezvous latency per tensor and a receiver-side bounce copy (§V-D)"},
	}
	return []*Table{t}
}

// withHostStaging makes a daemon land every pulled chunk in server
// DRAM first and then copy it to PMem — the extra hop the zero-copy
// design removes.
func withHostStaging(c *daemon.Config) {
	var dram *sim.BandwidthResource // made on first use: a simulated resource needs the engine
	c.Fabric = &readCharges{Fabric: c.Fabric, after: func(env sim.Env, _ *rdma.Node, n int64) {
		if dram == nil {
			dram = sim.NewBandwidthResource(env, "daemon/host-stage", perfmodel.ServerDRAMBW)
		}
		dram.Transfer(env, n, perfmodel.PMemWriteBW, 0)
	}}
}

// withTwoSided makes a daemon pull every chunk at a two-sided SEND/RECV
// protocol's cost: the rendezvous latency on top of the one-sided
// verb's, then the receiver-side copy out of the bounce buffer.
func withTwoSided(c *daemon.Config) {
	c.Fabric = &readCharges{Fabric: c.Fabric, before: perfmodel.TwoSidedLatency - perfmodel.RDMALatency,
		after: func(env sim.Env, local *rdma.Node, n int64) {
			sim.PipelineTransfer(env, n, perfmodel.DefaultChunk,
				sim.Stage{Res: local.NIC(), FlowCap: perfmodel.BeeGFSTransferBW})
		}}
}

// readCharges posts each READ of a list alone, charging before ahead of
// it and after once it has landed. WRITEs pass through: the ablations
// vary only the checkpoint path.
type readCharges struct {
	rdma.Fabric
	before time.Duration
	after  func(env sim.Env, local *rdma.Node, n int64)
}

func (f *readCharges) PostList(env sim.Env, local *rdma.Node, write bool, ops []rdma.Op, done func(i int, err error)) {
	if write {
		f.Fabric.PostList(env, local, write, ops, done)
		return
	}
	for i := range ops {
		if f.before > 0 {
			sim.Charge(env, f.before)
		}
		var err error
		f.Fabric.PostList(env, local, false, ops[i:i+1], func(_ int, e error) { err = e })
		if err == nil {
			f.after(env, local, ops[i].L.Len)
		}
		done(i, err)
	}
}

// AblationDoubleMap compares the paper's two-slot double mapping against
// allocating a fresh checkpoint structure for every version (§III-D2's
// rejected design).
func AblationDoubleMap() []*Table {
	spec := model.TableII()[5] // vit_l_32
	const rounds = 5

	var doubleMap, fresh time.Duration
	runEngine(func(env sim.Env) {
		tb, err := portus.NewTestbed(env, voltaConfig())
		if err != nil {
			panic(err)
		}
		m, err := tb.PlaceModel(env, 0, 0, spec)
		if err != nil {
			panic(err)
		}
		start := env.Now()
		for i := 1; i <= rounds; i++ {
			if err := m.Checkpoint(env, uint64(i)); err != nil {
				panic(err)
			}
		}
		doubleMap = (env.Now() - start) / rounds
	})
	runEngine(func(env sim.Env) {
		tb, err := portus.NewTestbed(env, voltaConfig())
		if err != nil {
			panic(err)
		}
		placed, err := gpu.Place(tb.Cluster.GPU(0, 0), spec)
		if err != nil {
			panic(err)
		}
		start := env.Now()
		for i := 1; i <= rounds; i++ {
			// Fresh allocation: every version re-registers MRs, ships the
			// metadata packet, allocates PMem, and rebuilds the MIndex.
			versioned := spec
			versioned.Name = fmt.Sprintf("%s@v%d", spec.Name, i)
			vp := &gpu.PlacedModel{Spec: versioned, GPU: placed.GPU, Offs: placed.Offs, Iteration: placed.Iteration}
			m, err := tb.Register(env, 0, vp, portus.ClientOptions{})
			if err != nil {
				panic(err)
			}
			if err := m.Checkpoint(env, uint64(i)); err != nil {
				panic(err)
			}
		}
		fresh = (env.Now() - start) / rounds
	})
	t := &Table{
		ID:     "ablation-doublemap",
		Title:  "Double mapping vs fresh allocation per checkpoint (ViT-L/32, mean of 5)",
		Header: []string{"Scheme", "Time per checkpoint", "Overhead"},
		Rows: [][]string{
			{"double mapping (two pre-allocated slots)", metrics.FormatDuration(doubleMap), "1.00x"},
			{"fresh structure per version", metrics.FormatDuration(fresh), ratio(fresh, doubleMap)},
		},
		Notes: []string{
			"fresh allocation pays registration, metadata shipping, PMem allocation, and index construction on every version",
			"double mapping holds exactly two versions, so space stays bounded without GC",
		},
	}
	return []*Table{t}
}

// AblationWorkers sweeps the daemon thread-pool width under a 16-tenant
// concurrent checkpoint burst.
func AblationWorkers() []*Table {
	spec := model.TableII()[5] // vit_l_32, ~1.1 GiB
	const tenants = 16
	t := &Table{
		ID:     "ablation-workers",
		Title:  fmt.Sprintf("Daemon worker-pool width under %d concurrent tenants (ViT-L/32 each)", tenants),
		Header: []string{"Workers", "Makespan", "Speedup vs 1"},
	}
	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8, 16} {
		var makespan time.Duration
		workers := workers
		runEngine(func(env sim.Env) {
			cfg := voltaConfig()
			cfg.GPUsPerNode = tenants
			tb, err := portus.NewTestbed(env, cfg, func(c *daemon.Config) { c.Workers = workers })
			if err != nil {
				panic(err)
			}
			tenantClients := make([]*portus.Model, tenants)
			for i := 0; i < tenants; i++ {
				s := spec
				s.Name = fmt.Sprintf("%s-tenant%d", spec.Name, i)
				tenantClients[i], err = tb.PlaceModel(env, 0, i, s)
				if err != nil {
					panic(err)
				}
			}
			start := env.Now()
			g := sim.NewGroup(env)
			for i := range tenantClients {
				i := i
				g.Add(env, 1)
				env.Go("tenant", func(env sim.Env) {
					defer g.Done(env)
					if err := tenantClients[i].Checkpoint(env, 1); err != nil {
						panic(err)
					}
				})
			}
			g.Wait(env)
			makespan = env.Now() - start
		})
		if workers == 1 {
			base = makespan
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(workers), secs(makespan), ratio(base, makespan)})
	}
	t.Notes = append(t.Notes, "scaling saturates once the aggregate PMem write bandwidth (6.2 GB/s) is the bottleneck")
	return []*Table{t}
}

// AblationBAR sweeps the GPU BAR read cap to show how much of Portus's
// checkpoint time is pinned to that hardware limit.
func AblationBAR() []*Table {
	bert := model.TableII()[6]
	t := &Table{
		ID:     "ablation-bar",
		Title:  "Sensitivity of the BERT-Large checkpoint to the GPU BAR read cap",
		Header: []string{"BAR read cap (GB/s)", "Checkpoint time", "Effective GB/s"},
	}
	for _, cap := range []float64{2, 4, 5.8, 8, 11.5} {
		rates := rdma.DefaultRates().WithGPUReadCap(cap * perfmodel.GB)
		cfg := voltaConfig()
		cfg.Rates = &rates
		r := measurePortus(bert, cfg)
		eff := float64(bert.TotalSize()) / r.ckpt.Seconds() / perfmodel.GB
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.1f", cap), metrics.FormatDuration(r.ckpt), fmt.Sprintf("%.2f", eff)})
	}
	t.Notes = append(t.Notes,
		"the paper measures 5.8 GB/s on V100s (§V-B); past ~11.5 GB/s the RNIC becomes the limit",
	)
	return []*Table{t}
}

// AblationFrequency quantifies the §I dilemma: frequent checkpoints cost
// steady-state overhead but bound lost work on failure. Checkpoint and
// restore costs are measured; the expected-loss model assumes failures
// arrive uniformly at the given MTBF.
func AblationFrequency() []*Table {
	bert := model.TableII()[6]
	po := measurePortus(bert, voltaConfig())
	bg := measureBaseline(bert, beeGFS)

	const (
		totalIters = 10000
		mtbfIters  = 2000
	)
	iterTime := bert.IterTime
	failures := float64(totalIters) / float64(mtbfIters)

	expectedTotal := func(ckpt, restore time.Duration, interval int) time.Duration {
		compute := time.Duration(totalIters) * iterTime
		overhead := time.Duration(totalIters/interval) * ckpt
		lost := time.Duration(failures * (float64(interval)/2*float64(iterTime) + float64(restore) + float64(ckpt)))
		return compute + overhead + lost
	}

	t := &Table{
		ID:     "ablation-frequency",
		Title:  fmt.Sprintf("Checkpoint interval vs total BERT training time (%d iters, failure every %d)", totalIters, mtbfIters),
		Header: []string{"Interval", "Portus total", "Traditional total"},
	}
	type best struct {
		interval int
		total    time.Duration
	}
	bestPo := best{total: 1 << 62}
	bestBG := best{total: 1 << 62}
	for _, interval := range []int{10, 25, 50, 100, 250, 500, 1000} {
		pt := expectedTotal(po.ckpt, po.restore, interval)
		bt := expectedTotal(bg.ckpt, bg.restore, interval)
		if pt < bestPo.total {
			bestPo = best{interval, pt}
		}
		if bt < bestBG.total {
			bestBG = best{interval, bt}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(interval), secs(pt), secs(bt)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("optimal interval: Portus %d iters (total %s) vs traditional %d iters (total %s)",
			bestPo.interval, metrics.FormatDuration(bestPo.total),
			bestBG.interval, metrics.FormatDuration(bestBG.total)),
		"cheap checkpoints shift the optimum toward much finer intervals — the paper's motivation for fine-grained checkpointing",
	)
	return []*Table{t}
}
