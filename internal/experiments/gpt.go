package experiments

import (
	"fmt"
	"time"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/baseline"
	"github.com/portus-sys/portus/internal/fsim"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/metrics"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/parallel"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/train"
)

// megatronGrid is the paper's Megatron placement: 8-way tensor parallel,
// 2 pipeline stages, over 2 Client-Ampere nodes with 8 A40s each.
const (
	megatronTP    = 8
	megatronPP    = 2
	megatronNodes = 2
	megatronGPUs  = 8
)

// megatronFleet stands up a cfg-sized testbed, partitions spec over the
// Megatron grid with one shard per GPU, and wraps every rank in the
// named checkpoint policy; body runs inside the engine with the fleet.
func megatronFleet(spec model.Spec, policy string, cfg portus.TestbedConfig, body func(env sim.Env, fleet *train.Fleet)) {
	runEngine(func(env sim.Env) {
		tb, err := portus.NewTestbed(env, cfg)
		if err != nil {
			panic(err)
		}
		shards, err := parallel.Partition(spec, megatronTP, megatronPP)
		if err != nil {
			panic(err)
		}
		ranks, err := parallel.Place(shards, megatronNodes, megatronGPUs)
		if err != nil {
			panic(err)
		}
		// All baseline ranks write into the one shared BeeGFS.
		backend := fsim.NewBeeGFS(tb.Cluster.Storage[0])
		place := func(pl parallel.Placement) *gpu.PlacedModel {
			placed, err := gpu.Place(tb.Cluster.GPU(pl.Node, pl.GPU), pl.Shard.Spec)
			if err != nil {
				panic(err)
			}
			return placed
		}
		register := func(pl parallel.Placement) *portus.Model {
			m, err := tb.PlaceModel(env, pl.Node, pl.GPU, pl.Shard.Spec)
			if err != nil {
				panic(err)
			}
			return m
		}
		var members []train.Checkpointer
		for _, pl := range ranks {
			var cp train.Checkpointer
			switch policy {
			case "torch.save":
				cp = baseline.NewTorchSave(backend, tb.Cluster.Compute[pl.Node], place(pl))
			case "checkfreq":
				cp = baseline.NewCheckFreq(backend, tb.Cluster.Compute[pl.Node], place(pl))
			case "portus-sync":
				cp = register(pl).SyncPolicy()
			case "portus-async":
				cp = register(pl).AsyncPolicy()
			default:
				panic("unknown policy " + policy)
			}
			members = append(members, cp)
		}
		body(env, train.NewFleet(policy, members))
	})
}

// megatronDump measures one full-model checkpoint with all 16 ranks
// checkpointing concurrently under policy: "torch.save" into shared
// BeeGFS, or "portus-sync" as 16 registered shards pulled one-sidedly.
func megatronDump(spec model.Spec, policy string, cfg portus.TestbedConfig) time.Duration {
	var elapsed time.Duration
	megatronFleet(spec, policy, cfg, func(env sim.Env, fleet *train.Fleet) {
		start := env.Now()
		if err := fleet.Checkpoint(env, 1); err != nil {
			panic(err)
		}
		elapsed = env.Now() - start
	})
	return elapsed
}

// Fig14 reproduces Figure 14: one checkpoint dump of each GPT scale via
// Portus versus torch.save to BeeGFS.
func Fig14() []*Table {
	t := &Table{
		ID:     "fig14",
		Title:  "GPT checkpoint dump time (16 ranks, 2 nodes x 8 A40)",
		Header: []string{"Model", "Checkpoint size", "torch.save", "Portus", "Speedup"},
	}
	var sum float64
	fam := model.GPTFamily()
	for _, spec := range fam {
		ts := megatronDump(spec, "torch.save", ampereConfig())
		po := megatronDump(spec, "portus-sync", ampereConfig())
		t.Rows = append(t.Rows, []string{
			spec.Name, metrics.FormatBytes(spec.TotalSize()),
			secs(ts), secs(po), ratio(ts, po),
		})
		sum += float64(ts) / float64(po)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean speedup %.2fx (paper: 8.18x; GPT-22.4B: >120s -> ~15s)", sum/float64(len(fam))),
		"torch.save ranks contend in the BeeGFS daemon; Portus pulls are bounded only by aggregate PMem write bandwidth")
	return []*Table{t}
}

// gptTrainingRun trains GPT-22.4B under a policy fleet at the
// fine-grained interval used for Figures 15 and 16.
func gptTrainingRun(policy string, iterations, interval int) train.Result {
	var res train.Result
	spec := model.GPT22B()
	megatronFleet(spec, policy, ampereConfig(), func(env sim.Env, fleet *train.Fleet) {
		var err error
		res, err = train.Run(env, train.Config{
			Spec:       spec,
			Policy:     fleet,
			Interval:   interval,
			Iterations: iterations,
		})
		if err != nil {
			panic(err)
		}
	})
	return res
}

// fig15Interval is the fine-grained checkpoint interval of the
// large-model training comparison.
const fig15Interval = 25

// Fig15 reproduces Figure 15: overall training time and throughput of
// GPT-22.4B under CheckFreq versus Portus.
func Fig15() []*Table {
	const iters = 100
	cf := gptTrainingRun("checkfreq", iters, fig15Interval)
	po := gptTrainingRun("portus-async", iters, fig15Interval)
	t := &Table{
		ID:     "fig15",
		Title:  fmt.Sprintf("GPT-22.4B training, %d iterations, checkpoint every %d", iters, fig15Interval),
		Header: []string{"Policy", "Total time", "Throughput (iter/s)", "Stall time", "Checkpoints"},
		Rows: [][]string{
			{"CheckFreq (BeeGFS-PMEM)", secs(cf.Elapsed), fmt.Sprintf("%.4f", cf.Throughput()), secs(cf.StallTime), fmt.Sprint(cf.Checkpoints)},
			{"Portus (async)", secs(po.Elapsed), fmt.Sprintf("%.4f", po.Throughput()), secs(po.StallTime), fmt.Sprint(po.Checkpoints)},
		},
		Notes: []string{
			fmt.Sprintf("throughput improvement: %.2fx (paper: 2.6x)", po.Throughput()/cf.Throughput()),
			"CheckFreq's next checkpoint stalls on the previous persist; Portus pulls finish well inside the interval",
		},
	}
	return []*Table{t}
}

// Fig16 reproduces Figure 16: the 500-second GPU-utilization trace of
// GPT-22.4B training under both policies.
func Fig16() []*Table {
	// Iteration counts are sized so both runs span the full 500 s
	// window (CheckFreq cycles are ~3x longer).
	const window = 500 * time.Second
	cf := gptTrainingRun("checkfreq", 100, fig15Interval)
	po := gptTrainingRun("portus-async", 225, fig15Interval)

	t := &Table{
		ID:     "fig16",
		Title:  "GPU utilization over the first 500s of GPT-22.4B training",
		Header: []string{"Window", "Portus", "CheckFreq"},
	}
	step := 25 * time.Second
	cfSeries := cf.Timeline.Series(window, step)
	poSeries := po.Timeline.Series(window, step)
	for i := range poSeries {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%3d-%3ds", i*25, (i+1)*25),
			pct(poSeries[i]),
			pct(cfSeries[i]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("average utilization: Portus %s (paper: 76.4%%), CheckFreq %s (paper: <43%%)",
			pct(metrics.Mean(poSeries)), pct(metrics.Mean(cfSeries))),
	)
	return []*Table{t}
}
