package experiments

import (
	"fmt"
	"time"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/metrics"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
)

// megatronPortusDumpOn measures the 16-rank GPT dump with a cluster
// override (used by the DRAM-fallback ablation).
func megatronPortusDumpOn(spec model.Spec, cmut func(*cluster.Config)) time.Duration {
	var elapsed time.Duration
	runEngine(func(env sim.Env) {
		cfg := ampereConfig()
		if cmut != nil {
			cmut(&cfg)
		}
		rig, err := newTierRig(env, cfg, nil)
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

// AblationDRAMTarget compares checkpointing into PMem versus the DRAM
// fallback (§IV-a, §V-B): indistinguishable for a single flow (both
// outrun the network), but DRAM lifts the aggregate ceiling for
// concurrent multi-GPU pulls — at the cost of durability.
func AblationDRAMTarget() []*Table {
	bert := model.TableII()[6]
	singlePMem := measurePortus(bert)
	singleDRAM := measurePortusOpt(bert, func(c *cluster.Config) { c.DRAMFallback = true }, nil)

	gpt := model.GPT22B()
	multiPMem := megatronPortusDumpOn(gpt, nil)
	multiDRAM := megatronPortusDumpOn(gpt, func(c *cluster.Config) { c.DRAMFallback = true })

	t := &Table{
		ID:     "ablation-dram",
		Title:  "Checkpoint target: Optane PMem vs DRAM fallback",
		Header: []string{"Workload", "PMem", "DRAM", "DRAM vs PMem"},
		Rows: [][]string{
			{"BERT-Large, 1 GPU", metrics.FormatDuration(singlePMem.ckpt), metrics.FormatDuration(singleDRAM.ckpt), ratio(singlePMem.ckpt, singleDRAM.ckpt)},
			{"GPT-22.4B, 16 GPUs", fmt.Sprintf("%.1fs", multiPMem.Seconds()), fmt.Sprintf("%.1fs", multiDRAM.Seconds()), ratio(multiPMem, multiDRAM)},
		},
		Notes: []string{
			"single-flow checkpoints see no difference — both media outrun the GPU BAR read path (the paper's §V-B observation)",
			"concurrent pulls are PMem-bandwidth-bound (6.2 GB/s aggregate); DRAM lifts the ceiling to the NIC",
			"the trade: DRAM checkpoints do not survive a storage-server power failure",
		},
	}
	return []*Table{t}
}
