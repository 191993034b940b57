// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on the simulated testbed (portus.Testbed, the same rig
// the benchmark measures), plus the ablation studies DESIGN.md §5 calls
// out. Each experiment is a pure function from nothing to renderable
// tables; cmd/portus-bench drives this registry.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/sim"
)

// Table is one renderable result artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a runnable evaluation artifact generator.
type Experiment struct {
	ID    string
	Title string
	Run   func() []*Table
}

// Registry returns every experiment in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Traditional DNN checkpointing overhead breakdown (Table I)", Table1},
		{"table2", "DNN model specifications (Table II)", Table2},
		{"fig2", "Checkpointing overhead in training time (Figure 2)", Fig2},
		{"datapath", "Datapath structure: copies, crossings, serialization (Figures 3 & 5)", Datapath},
		{"fig9", "Training timeline under each checkpoint policy (Figure 9)", Fig9},
		{"fig10", "Portus datapath bandwidth and latency (Figure 10)", Fig10},
		{"fig11", "Checkpointing time of different models (Figure 11)", Fig11},
		{"fig12", "Restoring time of different models (Figure 12)", Fig12},
		{"fig13", "Breakdown of BERT checkpointing time (Figure 13)", Fig13},
		{"fig14", "GPT checkpoint dump time, Portus vs torch.save (Figure 14)", Fig14},
		{"fig15", "GPT-22.4B training time vs CheckFreq (Figure 15)", Fig15},
		{"fig16", "GPU utilization, Portus vs CheckFreq (Figure 16)", Fig16},
		{"ablation-staging", "Ablation: zero-copy vs host staging", AblationStaging},
		{"ablation-onesided", "Ablation: one-sided vs two-sided data plane", AblationOneSided},
		{"ablation-doublemap", "Ablation: double mapping vs fresh allocation", AblationDoubleMap},
		{"ablation-workers", "Ablation: daemon worker-pool width", AblationWorkers},
		{"ablation-bar", "Ablation: sensitivity to the GPU BAR read cap", AblationBAR},
		{"ablation-frequency", "Ablation: checkpoint frequency vs lost work (§I trade-off)", AblationFrequency},
		{"ablation-dram", "Ablation: PMem vs DRAM checkpoint target (§IV fallback)", AblationDRAMTarget},
		{"ablation-adaptive", "Ablation: finest sustainable checkpoint frequency (CheckFreq tuner)", AblationAdaptive},
		{"ablation-churn", "Ablation: goodput under sustained failures (§I churn regime)", AblationChurn},
		{"ablation-pipeline", "Ablation: datapath pipeline depth x lane striping", AblationPipeline},
		{"scale", "Sharded storage tier: aggregate checkpoint throughput vs node count", Scale},
		{"delta", "Incremental checkpointing: delta transfer and PMem copy-forward vs mutation rate", Delta},
		{"multitenant", "Multi-tenant scheduling: fairness, coalescing, backpressure", Multitenant},
		{"chaos", "Chaos: checkpoint goodput and recoverability under injected faults", Chaos},
		{"failover", "Failover: surviving storage-node loss with replicated shards", Failover},
		{"churn", "Churn: tenant turnover against a full namespace with online reclamation", Churn},
		{"appendix", "Full 76-model zoo checkpoint times (Appendix)", Appendix},
	}
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have: %s)", id, strings.Join(ids, ", "))
}

// ---------------------------------------------------------------------------
// Shared harness helpers.
// ---------------------------------------------------------------------------

// voltaConfig is the single-GPU evaluation host (Client-Volta, §V-A) in
// virtual-content mode, sized for the biggest single-GPU models.
func voltaConfig() portus.TestbedConfig {
	return portus.TestbedConfig{
		ComputeNodes: 1,
		GPUsPerNode:  4,
		GPUMemBytes:  32 << 30,
		PMemBytes:    256 << 30,
		Materialized: false,
	}
}

// ampereConfig is the two-node Megatron host (2× Client-Ampere, 8×A40).
func ampereConfig() portus.TestbedConfig {
	return portus.TestbedConfig{
		ComputeNodes: 2,
		GPUsPerNode:  8,
		GPUMemBytes:  48 << 30,
		PMemBytes:    768 << 30,
		Materialized: false,
	}
}

// runEngine runs fn as the root process of a fresh engine and returns
// after the event queue drains.
func runEngine(fn func(env sim.Env)) {
	eng := sim.NewEngine()
	eng.Go("experiment", fn)
	eng.Run()
}

// secs renders a duration in seconds with 3 decimals.
func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// ratio renders a speedup.
func ratio(slow, fast time.Duration) string {
	if fast == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(slow)/float64(fast))
}

// pct renders a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
