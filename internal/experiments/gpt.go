package experiments

import (
	"fmt"
	"time"

	"github.com/portus-sys/portus/internal/baseline"
	"github.com/portus-sys/portus/internal/client"
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

// placeShards partitions spec and places every shard on its GPU.
func placeShards(env sim.Env, rig *tierRig, spec model.Spec) ([]*gpu.PlacedModel, []parallel.Placement, error) {
	shards, err := parallel.Partition(spec, megatronTP, megatronPP)
	if err != nil {
		return nil, nil, err
	}
	placements, err := parallel.Place(shards, megatronNodes, megatronGPUs)
	if err != nil {
		return nil, nil, err
	}
	placed := make([]*gpu.PlacedModel, len(placements))
	for i, pl := range placements {
		p, err := gpu.Place(rig.cl.GPU(pl.Node, pl.GPU), pl.Shard.Spec)
		if err != nil {
			return nil, nil, err
		}
		placed[i] = p
	}
	return placed, placements, nil
}

// megatronTorchSaveDump measures one full-model checkpoint via
// torch.save from all 16 ranks concurrently into shared BeeGFS.
func megatronTorchSaveDump(spec model.Spec) time.Duration {
	var elapsed time.Duration
	runEngine(func(env sim.Env) {
		rig, err := newTierRig(env, ampereConfig(), nil)
		if err != nil {
			panic(err)
		}
		placed, placements, err := placeShards(env, rig, spec)
		if err != nil {
			panic(err)
		}
		backend := fsim.NewBeeGFS(rig.cl.Storage[0])
		start := env.Now()
		g := sim.NewGroup(env)
		for i := range placed {
			i := i
			g.Add(env, 1)
			env.Go("rank", func(env sim.Env) {
				defer g.Done(env)
				cp := baseline.NewTorchSave(backend, rig.cl.Compute[placements[i].Node], placed[i])
				if err := cp.Checkpoint(env, 1); err != nil {
					panic(err)
				}
			})
		}
		g.Wait(env)
		elapsed = env.Now() - start
	})
	return elapsed
}

// megatronPortusDump measures the same full-model checkpoint through
// Portus: 16 registered shards, 16 concurrent one-sided pulls.
func megatronPortusDump(spec model.Spec) time.Duration {
	var elapsed time.Duration
	runEngine(func(env sim.Env) {
		rig, err := newTierRig(env, ampereConfig(), nil)
		if err != nil {
			panic(err)
		}
		placed, placements, err := placeShards(env, rig, spec)
		if err != nil {
			panic(err)
		}
		clients := make([]*client.Client, len(placed))
		for i := range placed {
			clients[i], err = rig.register(env, placements[i].Node, placed[i], client.Options{})
			if err != nil {
				panic(err)
			}
		}
		start := env.Now()
		g := sim.NewGroup(env)
		for i := range clients {
			i := i
			g.Add(env, 1)
			env.Go("rank", func(env sim.Env) {
				defer g.Done(env)
				if err := clients[i].CheckpointSync(env, 1); err != nil {
					panic(err)
				}
			})
		}
		g.Wait(env)
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
		ts := megatronTorchSaveDump(spec)
		po := megatronPortusDump(spec)
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
	runEngine(func(env sim.Env) {
		rig, err := newTierRig(env, ampereConfig(), nil)
		if err != nil {
			panic(err)
		}
		placed, placements, err := placeShards(env, rig, spec)
		if err != nil {
			panic(err)
		}
		var members []train.Checkpointer
		switch policy {
		case "checkfreq":
			backend := fsim.NewBeeGFS(rig.cl.Storage[0])
			for i := range placed {
				members = append(members, baseline.NewCheckFreq(backend, rig.cl.Compute[placements[i].Node], placed[i]))
			}
		case "portus-async":
			for i := range placed {
				c, err := rig.register(env, placements[i].Node, placed[i], client.Options{})
				if err != nil {
					panic(err)
				}
				members = append(members, &client.Async{C: c})
			}
		default:
			panic("unknown policy " + policy)
		}
		res, err = train.Run(env, train.Config{
			Spec:       spec,
			Policy:     train.NewFleet(policy, members),
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
