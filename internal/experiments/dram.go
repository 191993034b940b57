package experiments

import (
	"fmt"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/metrics"
	"github.com/portus-sys/portus/internal/model"
)

// AblationDRAMTarget compares checkpointing into PMem versus the DRAM
// fallback (§IV-a, §V-B): indistinguishable for a single flow (both
// outrun the network), but DRAM lifts the aggregate ceiling for
// concurrent multi-GPU pulls — at the cost of durability.
func AblationDRAMTarget() []*Table {
	bert := model.TableII()[6]
	dram := func(cfg portus.TestbedConfig) portus.TestbedConfig {
		cfg.DRAMFallback = true
		return cfg
	}
	singlePMem := measurePortus(bert, voltaConfig())
	singleDRAM := measurePortus(bert, dram(voltaConfig()))

	gpt := model.GPT22B()
	multiPMem := megatronDump(gpt, "portus-sync", ampereConfig())
	multiDRAM := megatronDump(gpt, "portus-sync", dram(ampereConfig()))

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
