package experiments

import (
	"fmt"
	"time"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/baseline"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/fsim"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/metrics"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
)

// backendKind selects a baseline storage path.
type backendKind int

const (
	beeGFS backendKind = iota + 1
	ext4NVMe
)

func (k backendKind) String() string {
	if k == beeGFS {
		return "BeeGFS-PMEM"
	}
	return "ext4-NVMe"
}

// baselineRun measures one torch.save checkpoint and one restore of spec
// through a baseline backend, returning durations and datapath stats.
type baselineRun struct {
	ckpt, restore time.Duration
	snapshot      time.Duration
	stats         fsim.Stats
}

func measureBaseline(spec model.Spec, kind backendKind) baselineRun {
	var out baselineRun
	runEngine(func(env sim.Env) {
		tb, err := portus.NewTestbed(env, voltaConfig())
		if err != nil {
			panic(err)
		}
		cl := tb.Cluster
		placed, err := gpu.Place(cl.GPU(0, 0), spec)
		if err != nil {
			panic(err)
		}
		var backend fsim.Backend
		if kind == beeGFS {
			backend = fsim.NewBeeGFS(cl.Storage[0])
		} else {
			backend = fsim.NewExt4NVMe(cl.Compute[0])
		}
		cp := baseline.NewTorchSave(backend, cl.Compute[0], placed)

		start := env.Now()
		if err := cp.Checkpoint(env, 1); err != nil {
			panic(err)
		}
		out.ckpt = env.Now() - start
		st := backend.Stats()
		out.snapshot = out.ckpt - st.SerializeTime - st.MetadataTime - st.TransferTime - st.PersistTime

		start = env.Now()
		if _, err := cp.Restore(env); err != nil {
			panic(err)
		}
		out.restore = env.Now() - start
		out.stats = backend.Stats()
	})
	return out
}

// portusRun is one Portus checkpoint and restore, with the daemon's
// pull/flush split of the checkpoint.
type portusRun struct {
	ckpt, restore time.Duration
	pull, flush   time.Duration
}

// measurePortus checkpoints and restores spec once on a cfg-sized
// testbed whose daemon configuration tune edits.
func measurePortus(spec model.Spec, cfg portus.TestbedConfig, tune ...func(*daemon.Config)) portusRun {
	var out portusRun
	runEngine(func(env sim.Env) {
		tb, err := portus.NewTestbed(env, cfg, tune...)
		if err != nil {
			panic(err)
		}
		m, err := tb.PlaceModel(env, 0, 0, spec)
		if err != nil {
			panic(err)
		}
		start := env.Now()
		if err := m.Checkpoint(env, 1); err != nil {
			panic(err)
		}
		out.ckpt = env.Now() - start
		st := tb.Daemons[0].Stats()
		out.pull, out.flush = st.PullTime, st.FlushTime

		start = env.Now()
		if _, err := m.Restore(env); err != nil {
			panic(err)
		}
		out.restore = env.Now() - start
	})
	return out
}

// Table1 reproduces Table I: the stage breakdown of a traditional
// (torch.save to BeeGFS-PMem) BERT checkpoint.
func Table1() []*Table {
	bert := model.TableII()[6]
	r := measureBaseline(bert, beeGFS)
	total := r.ckpt
	frac := func(d time.Duration) string { return pct(float64(d) / float64(total)) }
	t := &Table{
		ID:     "table1",
		Title:  "DNN checkpointing overhead (BERT-Large to BeeGFS-PMem)",
		Header: []string{"Operation", "Time", "Measured %", "Paper %"},
		Rows: [][]string{
			{"GPU to Main Memory", metrics.FormatDuration(r.snapshot), frac(r.snapshot), "15.5%"},
			{"Serialization", metrics.FormatDuration(r.stats.SerializeTime), frac(r.stats.SerializeTime), "41.7%"},
			{"Transmission (RDMA)", metrics.FormatDuration(r.stats.TransferTime + r.stats.MetadataTime), frac(r.stats.TransferTime + r.stats.MetadataTime), "30.0%"},
			{"Server DAX write", metrics.FormatDuration(r.stats.PersistTime), frac(r.stats.PersistTime), "12.8%"},
		},
		Notes: []string{fmt.Sprintf("total traditional checkpoint: %s", metrics.FormatDuration(total))},
	}
	return []*Table{t}
}

// Table2 prints the model zoo's headline specifications.
func Table2() []*Table {
	t := &Table{
		ID:     "table2",
		Title:  "DNN model specifications",
		Header: []string{"Model", "Layers", "Params", "Size"},
	}
	for _, s := range model.TableII() {
		t.Rows = append(t.Rows, []string{
			s.Name,
			fmt.Sprint(s.NumTensors()),
			fmt.Sprintf("%.1fM", float64(s.NumParams())/1e6),
			metrics.FormatBytes(s.TotalSize()),
		})
	}
	for _, s := range model.GPTFamily() {
		t.Rows = append(t.Rows, []string{
			s.Name,
			fmt.Sprint(s.NumTensors()),
			fmt.Sprintf("%.1fB", float64(s.NumParams())/1e9),
			metrics.FormatBytes(s.TotalSize()),
		})
	}
	return []*Table{t}
}

// Fig2 reproduces Figure 2: checkpoint overhead as a fraction of
// training time at CheckFreq's frequencies (VIT 1/83, GPT 1/100) using
// the traditional blocking path.
func Fig2() []*Table {
	type workload struct {
		spec     model.Spec
		interval int
		multi    bool
		paper    string
	}
	vit, _ := model.ByName("vit_l_32")
	gpts := model.GPTFamily()
	cases := []workload{
		{vit, 83, false, "~24.9%"},
		{gpts[2], 100, true, "~30%"},
		{gpts[3], 100, true, "~41%"},
	}
	t := &Table{
		ID:     "fig2",
		Title:  "Checkpointing overhead in total training time (traditional path)",
		Header: []string{"Model", "Interval", "Ckpt time", "Compute/interval", "Overhead", "Paper"},
	}
	for _, w := range cases {
		var ckpt time.Duration
		if w.multi {
			ckpt = megatronDump(w.spec, "torch.save", ampereConfig())
		} else {
			ckpt = measureBaseline(w.spec, beeGFS).ckpt
		}
		compute := time.Duration(w.interval) * w.spec.IterTime
		overhead := float64(ckpt) / float64(ckpt+compute)
		t.Rows = append(t.Rows, []string{
			w.spec.Name, fmt.Sprintf("1/%d", w.interval),
			metrics.FormatDuration(ckpt), metrics.FormatDuration(compute),
			pct(overhead), w.paper,
		})
	}
	t.Notes = append(t.Notes, "checkpointing blocks training on the traditional path; overhead = ckpt/(ckpt+compute)")
	return []*Table{t}
}

// Datapath reproduces the structural comparison of Figures 3 and 5:
// copies, kernel crossings, and serialization per checkpoint path.
func Datapath() []*Table {
	spec := model.TableII()[2] // resnet50: small and fast
	bg := measureBaseline(spec, beeGFS)
	ex := measureBaseline(spec, ext4NVMe)
	_ = measurePortus(spec, voltaConfig())
	t := &Table{
		ID:     "datapath",
		Title:  "Checkpoint datapath structure (one ResNet50 checkpoint)",
		Header: []string{"Path", "Data copies", "Kernel crossings", "Serialization", "Checkpoint time"},
		Rows: [][]string{
			{"BeeGFS-PMEM (traditional)", fmt.Sprint(bg.stats.Copies + 1), fmt.Sprint(bg.stats.KernelCrossings), "yes", metrics.FormatDuration(bg.ckpt)},
			{"ext4-NVMe (local)", fmt.Sprint(ex.stats.Copies + 1), fmt.Sprint(ex.stats.KernelCrossings), "yes", metrics.FormatDuration(ex.ckpt)},
			{"Portus (zero-copy RDMA)", "0", "0", "no", metrics.FormatDuration(measurePortus(spec, voltaConfig()).ckpt)},
		},
		Notes: []string{
			"traditional copies: GPU->host staging, host->server memory, server memory->PMem",
			"Portus: the daemon pulls GPU memory into PMem directly; the training process never copies or crosses into the kernel",
		},
	}
	return []*Table{t}
}

// Fig11 reproduces Figure 11: checkpoint time of the seven Table II
// models under Portus, BeeGFS-PMem, and ext4-NVMe.
func Fig11() []*Table {
	t := &Table{
		ID:     "fig11",
		Title:  "Checkpointing time of different models",
		Header: []string{"Model", "Portus", "BeeGFS-PMEM", "ext4-NVMe", "vs BeeGFS", "vs ext4"},
	}
	var sumBG, sumEX float64
	for _, spec := range model.TableII() {
		p := measurePortus(spec, voltaConfig())
		bg := measureBaseline(spec, beeGFS)
		ex := measureBaseline(spec, ext4NVMe)
		t.Rows = append(t.Rows, []string{
			spec.Name, secs(p.ckpt), secs(bg.ckpt), secs(ex.ckpt),
			ratio(bg.ckpt, p.ckpt), ratio(ex.ckpt, p.ckpt),
		})
		sumBG += float64(bg.ckpt) / float64(p.ckpt)
		sumEX += float64(ex.ckpt) / float64(p.ckpt)
	}
	n := float64(len(model.TableII()))
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean speedup: %.2fx vs BeeGFS-PMEM (paper: 8.49x, up to 9.23x), %.2fx vs ext4-NVMe (paper: 8.18x)", sumBG/n, sumEX/n),
		"times in seconds")
	return []*Table{t}
}

// Fig12 reproduces Figure 12: restore times for the same matrix.
func Fig12() []*Table {
	t := &Table{
		ID:     "fig12",
		Title:  "Restoring time of different models",
		Header: []string{"Model", "Portus", "BeeGFS-PMEM", "ext4-NVMe", "vs BeeGFS", "vs ext4"},
	}
	var sumBG, sumEX float64
	for _, spec := range model.TableII() {
		p := measurePortus(spec, voltaConfig())
		bg := measureBaseline(spec, beeGFS)
		ex := measureBaseline(spec, ext4NVMe)
		t.Rows = append(t.Rows, []string{
			spec.Name, secs(p.restore), secs(bg.restore), secs(ex.restore),
			ratio(bg.restore, p.restore), ratio(ex.restore, p.restore),
		})
		sumBG += float64(bg.restore) / float64(p.restore)
		sumEX += float64(ex.restore) / float64(p.restore)
	}
	n := float64(len(model.TableII()))
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean speedup: %.2fx vs BeeGFS-PMEM (paper: 5.15x, up to 7.0x), %.2fx vs ext4-NVMe (paper: 3.83x)", sumBG/n, sumEX/n),
		"restore gains are smaller than checkpoint gains: GPU-Direct Storage spares the baselines the host bounce (§V-C2)")
	return []*Table{t}
}

// Fig13 reproduces Figure 13: the per-stage breakdown of one BERT
// checkpoint under all three systems.
func Fig13() []*Table {
	bert := model.TableII()[6]
	p := measurePortus(bert, voltaConfig())
	bg := measureBaseline(bert, beeGFS)
	ex := measureBaseline(bert, ext4NVMe)

	t := &Table{
		ID:     "fig13",
		Title:  "Breakdown of BERT checkpointing time",
		Header: []string{"System", "cuMemcpy", "Serialize", "Transfer", "Persist", "Total"},
		Rows: [][]string{
			{"Portus",
				"-", "-",
				metrics.FormatDuration(p.pull),
				metrics.FormatDuration(p.flush),
				metrics.FormatDuration(p.ckpt)},
			{"BeeGFS-PMEM",
				metrics.FormatDuration(bg.snapshot),
				metrics.FormatDuration(bg.stats.SerializeTime),
				metrics.FormatDuration(bg.stats.TransferTime + bg.stats.MetadataTime),
				metrics.FormatDuration(bg.stats.PersistTime),
				metrics.FormatDuration(bg.ckpt)},
			{"ext4-NVMe",
				metrics.FormatDuration(ex.snapshot),
				metrics.FormatDuration(ex.stats.SerializeTime),
				metrics.FormatDuration(ex.stats.MetadataTime),
				metrics.FormatDuration(ex.stats.PersistTime),
				metrics.FormatDuration(ex.ckpt)},
		},
		Notes: []string{
			fmt.Sprintf("serialization + cuMemcpy are %s of BeeGFS-PMEM (paper: 57.2%%) and %s of ext4-NVMe (paper: 46.5%%)",
				pct(float64(bg.snapshot+bg.stats.SerializeTime)/float64(bg.ckpt)),
				pct(float64(ex.snapshot+ex.stats.SerializeTime)/float64(ex.ckpt))),
			fmt.Sprintf("block-device interaction is %s of ext4-NVMe (paper: 53.7%%)",
				pct(float64(ex.stats.MetadataTime+ex.stats.PersistTime)/float64(ex.ckpt))),
			"RDMA transmission dominates the Portus checkpoint (one-sided reads at the GPU BAR limit)",
		},
	}
	return []*Table{t}
}

// Appendix measures the whole 76-model zoo, Portus vs BeeGFS-PMem.
func Appendix() []*Table {
	t := &Table{
		ID:     "appendix",
		Title:  "Checkpoint time across the full 76-model evaluation set",
		Header: []string{"Model", "Size", "Portus", "BeeGFS-PMEM", "Speedup"},
	}
	var sum float64
	zoo := model.Zoo()
	for _, spec := range zoo {
		p := measurePortus(spec, voltaConfig())
		bg := measureBaseline(spec, beeGFS)
		t.Rows = append(t.Rows, []string{
			spec.Name, metrics.FormatBytes(spec.TotalSize()),
			secs(p.ckpt), secs(bg.ckpt), ratio(bg.ckpt, p.ckpt),
		})
		sum += float64(bg.ckpt) / float64(p.ckpt)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("mean speedup across %d models: %.2fx", len(zoo), sum/float64(len(zoo))))
	return []*Table{t}
}
