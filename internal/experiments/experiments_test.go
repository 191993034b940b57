package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/perfmodel"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"table1", "table2", "fig2", "datapath", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"ablation-staging", "ablation-onesided", "ablation-doublemap",
		"ablation-workers", "ablation-bar", "ablation-frequency",
		"ablation-dram", "ablation-adaptive", "ablation-churn",
		"ablation-pipeline", "scale", "delta", "multitenant", "chaos",
		"failover", "churn", "appendix",
	}
	var have []string
	for _, e := range Registry() {
		have = append(have, e.ID)
	}
	if !slices.Equal(have, want) {
		t.Errorf("registry ids = %v, want %v", have, want)
	}
	if _, err := ByID("fig11"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("bogus"); err == nil {
		t.Fatal("ByID accepted a bogus id")
	}
}

// parseRatio reads "8.49x" cells.
func parseRatio(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("bad ratio cell %q: %v", cell, err)
	}
	return v
}

// parsePct reads "41.3%" cells.
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent cell %q: %v", cell, err)
	}
	return v
}

// TestTable1MatchesPaperBreakdown pins the calibration: each stage of
// the traditional checkpoint must stay within 4 points of Table I.
func TestTable1MatchesPaperBreakdown(t *testing.T) {
	tbl := Table1()[0]
	want := map[string]float64{
		"GPU to Main Memory":  15.5,
		"Serialization":       41.7,
		"Transmission (RDMA)": 30.0,
		"Server DAX write":    12.8,
	}
	for _, row := range tbl.Rows {
		got := parsePct(t, row[2])
		if diff := got - want[row[0]]; diff > 4 || diff < -4 {
			t.Errorf("%s: measured %.1f%%, paper %.1f%%", row[0], got, want[row[0]])
		}
	}
}

// TestFig11SpeedupShape verifies the headline result: Portus beats both
// baselines on every model, the mean lands near the paper's 8.49x/8.18x,
// and ResNet50 is the best case.
func TestFig11SpeedupShape(t *testing.T) {
	tbl := Fig11()[0]
	var best string
	bestRatio := 0.0
	var sumBG float64
	for _, row := range tbl.Rows {
		bg := parseRatio(t, row[4])
		ex := parseRatio(t, row[5])
		if bg < 5 || ex < 5 {
			t.Errorf("%s: speedups %.2f / %.2f below 5x", row[0], bg, ex)
		}
		if bg > bestRatio {
			bestRatio, best = bg, row[0]
		}
		sumBG += bg
	}
	mean := sumBG / float64(len(tbl.Rows))
	if mean < 7 || mean > 10 {
		t.Errorf("mean BeeGFS speedup %.2f outside [7, 10] (paper: 8.49)", mean)
	}
	if best != "resnet50" {
		t.Errorf("best case is %s, paper says resnet50", best)
	}
	if bestRatio < 8.5 || bestRatio > 11 {
		t.Errorf("best-case speedup %.2f outside [8.5, 11] (paper: 9.23)", bestRatio)
	}
}

// TestFig12RestoreShape: restore speedups are real but smaller than
// checkpoint speedups (GDS helps the baselines).
func TestFig12RestoreShape(t *testing.T) {
	ckpt := Fig11()[0]
	rest := Fig12()[0]
	for i := range rest.Rows {
		cb := parseRatio(t, ckpt.Rows[i][4])
		rb := parseRatio(t, rest.Rows[i][4])
		if rb >= cb {
			t.Errorf("%s: restore speedup %.2f not below checkpoint %.2f", rest.Rows[i][0], rb, cb)
		}
		if rb < 3.5 {
			t.Errorf("%s: restore speedup %.2f below 3.5x", rest.Rows[i][0], rb)
		}
	}
}

// TestFig14GPTShape: torch.save needs >100 s for GPT-22.4B while Portus
// stays under 20 s, and the gap holds across scales.
func TestFig14GPTShape(t *testing.T) {
	tbl := Fig14()[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("fig14 rows = %d", len(tbl.Rows))
	}
	last := tbl.Rows[3]
	ts, err := strconv.ParseFloat(last[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	po, err := strconv.ParseFloat(last[3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if ts < 100 {
		t.Errorf("GPT-22.4B torch.save = %.1fs, paper reports >120s", ts)
	}
	if po < 10 || po > 20 {
		t.Errorf("GPT-22.4B Portus = %.1fs, paper reports ~15s", po)
	}
	for _, row := range tbl.Rows {
		if r := parseRatio(t, row[4]); r < 6 {
			t.Errorf("%s speedup %.2f below 6x", row[0], r)
		}
	}
}

// TestFig2OverheadShape: checkpoint overhead grows with model scale and
// reaches ~41% on GPT-22.4B.
func TestFig2OverheadShape(t *testing.T) {
	tbl := Fig2()[0]
	var prev float64
	for i, row := range tbl.Rows {
		got := parsePct(t, row[4])
		if got < prev {
			t.Errorf("overhead not increasing with scale at row %d", i)
		}
		prev = got
	}
	if first := parsePct(t, tbl.Rows[0][4]); first < 20 || first > 32 {
		t.Errorf("VIT overhead %.1f%% outside [20, 32] (paper: 24.9%%)", first)
	}
	if last := parsePct(t, tbl.Rows[2][4]); last < 35 || last > 52 {
		t.Errorf("GPT-22.4B overhead %.1f%% outside [35, 52] (paper: 41%%)", last)
	}
}

// TestDatapathStructure pins the structural claim of Figures 3/5.
func TestDatapathStructure(t *testing.T) {
	tbl := Datapath()[0]
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "Portus") {
			if row[1] != "0" || row[2] != "0" || row[3] != "no" {
				t.Errorf("Portus row = %v, want 0 copies, 0 crossings, no serialization", row)
			}
		} else {
			if row[1] == "0" || row[3] != "yes" {
				t.Errorf("baseline row = %v, want copies > 0 and serialization", row)
			}
		}
	}
}

// TestFig10BandwidthShape pins the datapath claims: GPU reads capped
// near 5.8 GB/s, writes near the NIC limit, saturation past 512 KiB.
func TestFig10BandwidthShape(t *testing.T) {
	tables := Fig10()
	readBW := tables[0]
	writeBW := tables[2]
	lastRead := readBW.Rows[len(readBW.Rows)-1]
	// Columns: Size, DRAM<->DRAM, DRAM<->GPU, PMEM<->DRAM, PMEM<->GPU.
	gpuRead, _ := strconv.ParseFloat(lastRead[2], 64)
	dramRead, _ := strconv.ParseFloat(lastRead[1], 64)
	if gpuRead < 5.0 || gpuRead > 5.9 {
		t.Errorf("GPU read peak %.2f GB/s, paper: 5.8", gpuRead)
	}
	if dramRead < 7.0 || dramRead > 8.5 {
		t.Errorf("DRAM read peak %.2f GB/s, paper: ~8.3", dramRead)
	}
	lastWrite := writeBW.Rows[len(writeBW.Rows)-1]
	gpuWrite, _ := strconv.ParseFloat(lastWrite[2], 64)
	if gpuWrite <= gpuRead {
		t.Errorf("GPU write peak %.2f not above read peak %.2f (BAR must not affect writes)", gpuWrite, gpuRead)
	}
}

// TestFig16Utilization pins the utilization claim within a few points.
func TestFig16Utilization(t *testing.T) {
	if testing.Short() {
		t.Skip("fig16 trains hundreds of GPT iterations")
	}
	tbl := Fig16()[0]
	// The note carries the averages; parse them out.
	note := tbl.Notes[0]
	if !strings.Contains(note, "Portus") || !strings.Contains(note, "CheckFreq") {
		t.Fatalf("note missing averages: %q", note)
	}
	var poAvg, cfAvg float64
	for _, f := range strings.Fields(note) {
		if strings.HasSuffix(f, "%") && poAvg == 0 {
			poAvg = parsePct(t, f)
		} else if strings.HasSuffix(f, "%") && strings.Contains(f, ".") && cfAvg == 0 && poAvg != 0 {
			cfAvg = parsePct(t, f)
		}
	}
	if poAvg < 70 || poAvg > 85 {
		t.Errorf("Portus utilization %.1f%% outside [70, 85] (paper: 76.4%%)", poAvg)
	}
}

// TestAblationsReportExpectedDirections smoke-checks each ablation's
// headline direction.
func TestAblationsReportExpectedDirections(t *testing.T) {
	if r := parseRatio(t, AblationStaging()[0].Rows[1][2]); r <= 1.2 {
		t.Errorf("staging slowdown %.2fx, want >1.2x", r)
	}
	if r := parseRatio(t, AblationOneSided()[0].Rows[1][2]); r <= 1.5 {
		t.Errorf("two-sided slowdown %.2fx, want >1.5x", r)
	}
	if r := parseRatio(t, AblationDoubleMap()[0].Rows[1][2]); r <= 1.1 {
		t.Errorf("fresh-allocation overhead %.2fx, want >1.1x", r)
	}
}

// TestPipelineDepthHelps pins the new ablation's headline: with 4 MiB
// chunks, pipeline depth 2 strictly beats the sequential datapath on
// BERT-Large because the flush of chunk N hides behind the pull of N+1.
func TestPipelineDepthHelps(t *testing.T) {
	spec := model.TableII()[6] // BERT-Large
	run := func(depth int) time.Duration {
		return measurePortus(spec, voltaConfig(), func(c *daemon.Config) {
			c.ChunkSize = perfmodel.DefaultChunk
			c.PipelineDepth = depth
		}).ckpt
	}
	d1, d2 := run(1), run(2)
	if d2 >= d1 {
		t.Errorf("depth-2 checkpoint (%v) not faster than depth-1 (%v)", d2, d1)
	}
}

// TestFig9PolicyOrdering pins the policy ranking of Figure 9 at
// per-iteration checkpoint frequency.
func TestFig9PolicyOrdering(t *testing.T) {
	tbl := Fig9()[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("fig9 rows = %d", len(tbl.Rows))
	}
	total := func(i int) float64 {
		v, err := strconv.ParseFloat(tbl.Rows[i][1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	torch, cf, psync, pasync := total(0), total(1), total(2), total(3)
	if cf > torch*1.05 {
		t.Errorf("CheckFreq (%.2fs) slower than torch.save (%.2fs)", cf, torch)
	}
	if psync >= cf {
		t.Errorf("Portus-sync (%.2fs) not faster than CheckFreq (%.2fs)", psync, cf)
	}
	if pasync >= psync {
		t.Errorf("Portus-async (%.2fs) not faster than Portus-sync (%.2fs)", pasync, psync)
	}
	if torch/pasync < 4 {
		t.Errorf("async advantage %.1fx below 4x at per-iteration frequency", torch/pasync)
	}
}

// TestDRAMFallbackShape pins §IV-a's fallback behaviour: no single-flow
// difference, a real multi-GPU difference.
func TestDRAMFallbackShape(t *testing.T) {
	tbl := AblationDRAMTarget()[0]
	single := parseRatio(t, tbl.Rows[0][3])
	multi := parseRatio(t, tbl.Rows[1][3])
	if single < 0.95 || single > 1.1 {
		t.Errorf("single-flow DRAM-vs-PMem ratio %.2f, want ~1.0 (the paper's §V-B claim)", single)
	}
	if multi < 1.4 {
		t.Errorf("multi-GPU DRAM speedup %.2f, want >1.4 (PMem aggregate is the bottleneck)", multi)
	}
}

// TestAdaptiveFrequencyShape: Portus's feasibility floor (pull time)
// must sit several times below CheckFreq's (persist time) on every
// model.
func TestAdaptiveFrequencyShape(t *testing.T) {
	tbl := AblationAdaptive()[0]
	for _, row := range tbl.Rows {
		gain, err := strconv.ParseFloat(strings.TrimSuffix(row[6], "x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if gain < 3 {
			t.Errorf("%s: frequency gain %.1fx below 3x", row[0], gain)
		}
	}
}

// TestExperimentOutputIsDeterministic renders a full figure twice and
// requires byte-identical tables — the property that makes the
// reproduction auditable.
func TestExperimentOutputIsDeterministic(t *testing.T) {
	render := func() string {
		var b strings.Builder
		for _, tbl := range Fig11() {
			b.WriteString(tbl.String())
		}
		for _, tbl := range Fig10() {
			b.WriteString(tbl.String())
		}
		return b.String()
	}
	if render() != render() {
		t.Fatal("two renders of the same experiments differ")
	}
}

// TestMeasurementsAreDeterministic: the virtual-time harness must
// reproduce identical numbers run-to-run.
func TestMeasurementsAreDeterministic(t *testing.T) {
	a := measurePortus(model.TableII()[2], voltaConfig())
	b := measurePortus(model.TableII()[2], voltaConfig())
	if a.ckpt != b.ckpt || a.restore != b.restore {
		t.Fatalf("nondeterministic measurement: %v/%v vs %v/%v", a.ckpt, a.restore, b.ckpt, b.restore)
	}
	if a.ckpt <= 0 || a.ckpt > time.Second {
		t.Fatalf("resnet50 Portus checkpoint = %v, implausible", a.ckpt)
	}
}
