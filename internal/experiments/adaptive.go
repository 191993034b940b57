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
	"github.com/portus-sys/portus/internal/sim"
)

// profileCheckFreq measures the two CheckFreq phases for spec: the
// blocking snapshot and the background persist.
func profileCheckFreq(spec model.Spec) (snapshot, persist time.Duration) {
	runEngine(func(env sim.Env) {
		tb, err := portus.NewTestbed(env, voltaConfig())
		if err != nil {
			panic(err)
		}
		placed, err := gpu.Place(tb.Cluster.GPU(0, 0), spec)
		if err != nil {
			panic(err)
		}
		backend := fsim.NewBeeGFS(tb.Cluster.Storage[0])
		start := env.Now()
		_ = baseline.Snapshot(env, tb.Cluster.Compute[0], placed)
		snapshot = env.Now() - start
		cp := baseline.NewTorchSave(backend, tb.Cluster.Compute[0], placed)
		start = env.Now()
		if err := cp.Checkpoint(env, 1); err != nil {
			panic(err)
		}
		persist = (env.Now() - start) - snapshot
	})
	return snapshot, persist
}

// minFeasibleInterval is the finest checkpoint frequency a policy
// sustains: its pipelined phase (persist for CheckFreq, the pull for
// Portus) must complete before the next checkpoint is due, or every
// checkpoint stalls on its predecessor.
func minFeasibleInterval(iterTime, pipelined time.Duration) int {
	n := int(pipelined/iterTime) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// asyncStall is Portus-async's per-checkpoint training stall: the pull
// overlaps one iteration's forward+backward; the remainder blocks the
// update phase (the WAR barrier).
func asyncStall(iterTime, pull time.Duration) time.Duration {
	overlap := time.Duration(0.8 * float64(iterTime)) // F+B share
	if pull <= overlap {
		return 0
	}
	return pull - overlap
}

// AblationAdaptive quantifies "Portus supports finer-grained
// checkpoints" (§I, §V-E): for each model, the finest interval each
// policy can physically sustain, and the training stall paid there.
// CheckFreq's floor is its persist time (the next snapshot waits for the
// previous persist); Portus's floor is its pull time.
func AblationAdaptive() []*Table {
	t := &Table{
		ID:     "ablation-adaptive",
		Title:  "Finest sustainable checkpoint interval per policy",
		Header: []string{"Model", "Iter time", "CheckFreq min", "stall@min", "Portus min", "stall@min", "Frequency gain"},
	}
	for _, spec := range model.TableII() {
		snapshot, persist := profileCheckFreq(spec)
		cfMin := minFeasibleInterval(spec.IterTime, persist)
		p := measurePortus(spec, voltaConfig())
		poMin := minFeasibleInterval(spec.IterTime, p.ckpt)
		t.Rows = append(t.Rows, []string{
			spec.Name,
			metrics.FormatDuration(spec.IterTime),
			fmt.Sprintf("1/%d", cfMin),
			metrics.FormatDuration(snapshot),
			fmt.Sprintf("1/%d", poMin),
			metrics.FormatDuration(asyncStall(spec.IterTime, p.ckpt)),
			fmt.Sprintf("%.1fx", float64(cfMin)/float64(poMin)),
		})
	}

	// The paper's 24-hour GPT framing (§V-E): at the Figure 15/16
	// interval, how many iterations does each policy complete per day?
	gpt := model.GPT22B()
	cfPersist := megatronDump(gpt, "torch.save", ampereConfig())
	poPull := megatronDump(gpt, "portus-sync", ampereConfig())
	cfSnapshot := 2800 * time.Millisecond // 16 ranks' staging copies, PCIe-shared
	const interval = fig15Interval
	cfCycle := time.Duration(interval)*gpt.IterTime + cfSnapshot
	if cfPersist+cfSnapshot > cfCycle {
		cfCycle = cfPersist + cfSnapshot // persist-bound: every cycle waits
	}
	poCycle := time.Duration(interval)*gpt.IterTime + asyncStall(gpt.IterTime, poPull)
	day := 24 * time.Hour
	cfPerDay := int(float64(interval) * float64(day) / float64(cfCycle))
	poPerDay := int(float64(interval) * float64(day) / float64(poCycle))
	t.Notes = append(t.Notes,
		fmt.Sprintf("GPT-22.4B at the Fig. 15 interval (1/%d): CheckFreq completes ~%d iterations/day, Portus ~%d — %d more (paper: ~14,400 more, §V-E)",
			interval, cfPerDay, poPerDay, poPerDay-cfPerDay),
		fmt.Sprintf("GPT-22.4B feasibility floors: CheckFreq 1/%d (persist %.0fs), Portus 1/%d (pull %.1fs)",
			minFeasibleInterval(gpt.IterTime, cfPersist), cfPersist.Seconds(),
			minFeasibleInterval(gpt.IterTime, poPull), poPull.Seconds()),
	)
	return []*Table{t}
}
