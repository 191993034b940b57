package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// Quantiles summarizes one latency sample set in seconds.
type Quantiles struct {
	Count int     `json:"count"`
	Min   float64 `json:"min_seconds"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
	Max   float64 `json:"max_seconds"`
	Mean  float64 `json:"mean_seconds"`
}

func quantiles(samples []time.Duration) Quantiles {
	if len(samples) == 0 {
		return Quantiles{}
	}
	s := make([]float64, len(samples))
	var sum float64
	for i, d := range samples {
		s[i] = d.Seconds()
		sum += s[i]
	}
	sort.Float64s(s)
	at := func(q float64) float64 { return s[int(q*float64(len(s)-1))] }
	return Quantiles{
		Count: len(s),
		Min:   s[0],
		P50:   at(0.50),
		P90:   at(0.90),
		P99:   at(0.99),
		Max:   s[len(s)-1],
		Mean:  sum / float64(len(s)),
	}
}

// ProbeConfig describes the instrumented rig a perf probe runs on: the
// model checkpointed, how many iterations, and the datapath shape.
type ProbeConfig struct {
	Model         string `json:"model"`
	Iterations    int    `json:"iterations"`
	PipelineDepth int    `json:"pipeline_depth"`
	Lanes         int    `json:"lanes"`
	ChunkMiB      int64  `json:"chunk_mib"`
	Workers       int    `json:"workers"`
}

// ProbeResult is the trace-derived perf record of one instrumented run:
// end-to-end checkpoint quantiles, per-stage latencies harvested from
// the stitched span trees, and the tiling check (client span sums vs
// reported end-to-end latency) the perf-smoke CI job gates on.
type ProbeResult struct {
	Config             ProbeConfig          `json:"config"`
	BytesPerCheckpoint int64                `json:"bytes_per_checkpoint"`
	ThroughputGBps     float64              `json:"throughput_gbps"`
	Checkpoint         Quantiles            `json:"checkpoint_seconds"`
	Stages             map[string]Quantiles `json:"stage_seconds"`
	StitchedTraces     int                  `json:"stitched_traces"`
	// SpanSumDivergence is the worst relative gap between the sum of a
	// stitched trace's top-level span durations and its reported
	// end-to-end duration. The client's send/await spans tile the root
	// exactly, so any drift means a broken span tree.
	SpanSumDivergence float64 `json:"span_sum_divergence"`
}

// probeStages are the span names harvested into per-stage quantiles:
// the client half (send, await, busy-wait) and the daemon half
// (enqueue-wait, pull, flush, commit) of the stitched tree.
var probeStages = []string{"send", "await", "busy-wait", "enqueue-wait", "pull", "flush", "commit"}

// defaultProbe is the baseline probe shape: the paper's BERT workload
// on the sequential one-lane datapath.
func defaultProbe() ProbeConfig {
	return ProbeConfig{Model: "bert_large", Iterations: 16, PipelineDepth: 1, Lanes: 1, Workers: 4}
}

// probeOverrides maps experiment ids to probe shapes that exercise the
// configuration the experiment studies; everything else runs the
// baseline probe.
var probeOverrides = map[string]func(*ProbeConfig){
	"ablation-pipeline": func(c *ProbeConfig) { c.PipelineDepth = 4; c.Lanes = 4; c.ChunkMiB = 64 },
	"ablation-workers":  func(c *ProbeConfig) { c.Workers = 16 },
	"fig10":             func(c *ProbeConfig) { c.ChunkMiB = 128 },
	"fig14":             func(c *ProbeConfig) { c.Model = "gpt-1.5b"; c.Iterations = 8 },
	"fig15":             func(c *ProbeConfig) { c.Model = "gpt-1.5b"; c.Iterations = 8 },
	"fig16":             func(c *ProbeConfig) { c.Model = "gpt-1.5b"; c.Iterations = 8 },
}

// ProbeFor returns the probe configuration used for an experiment id.
func ProbeFor(id string) ProbeConfig {
	cfg := defaultProbe()
	if mut, ok := probeOverrides[id]; ok {
		mut(&cfg)
	}
	return cfg
}

// RunPerfProbe checkpoints cfg.Model cfg.Iterations times on a fresh
// instrumented rig and distills the trace ring into a ProbeResult. It
// runs entirely in virtual time.
func RunPerfProbe(cfg ProbeConfig) (ProbeResult, error) {
	spec, err := model.ByName(cfg.Model)
	if err != nil {
		return ProbeResult{}, err
	}
	res := ProbeResult{Config: cfg, Stages: map[string]Quantiles{}}
	var runErr error
	runEngine(func(env sim.Env) {
		rig, err := newTierRig(env, voltaConfig(), func(d *daemon.Config) {
			d.Workers = cfg.Workers
			d.PipelineDepth = cfg.PipelineDepth
			d.Lanes = cfg.Lanes
			d.ChunkSize = cfg.ChunkMiB << 20
			d.TraceDepth = 2 * cfg.Iterations
		})
		if err != nil {
			runErr = err
			return
		}
		_, c, err := rig.place(env, 0, 0, spec, client.Options{})
		if err != nil {
			runErr = err
			return
		}
		for i := 1; i <= cfg.Iterations; i++ {
			if err := c.CheckpointSync(env, uint64(i)); err != nil {
				runErr = fmt.Errorf("checkpoint %d: %w", i, err)
				return
			}
		}
		// The client ships its span tree after CheckpointSync returns
		// (off the training path); give the reports time to stitch.
		env.Sleep(50 * time.Millisecond)

		var latencies []time.Duration
		stageSamples := map[string][]time.Duration{}
		for _, tr := range rig.daemons[0].Traces().Snapshot() {
			if tr.Kind != "client:checkpoint" && tr.Kind != "checkpoint" {
				continue
			}
			latencies = append(latencies, tr.Duration)
			res.BytesPerCheckpoint = tr.Bytes
			if tr.Stitched {
				res.StitchedTraces++
				var sum time.Duration
				for _, sp := range tr.Root.Children {
					sum += sp.Dur()
				}
				if tr.Duration > 0 {
					div := math.Abs(float64(sum-tr.Duration)) / float64(tr.Duration)
					if div > res.SpanSumDivergence {
						res.SpanSumDivergence = div
					}
				}
			}
			for _, name := range probeStages {
				tr.Root.Walk(func(sp *telemetry.Span) {
					if sp.Name == name {
						stageSamples[name] = append(stageSamples[name], sp.Dur())
					}
				})
			}
		}
		res.Checkpoint = quantiles(latencies)
		for name, samples := range stageSamples {
			res.Stages[name] = quantiles(samples)
		}
		if res.Checkpoint.Mean > 0 {
			res.ThroughputGBps = float64(res.BytesPerCheckpoint) / res.Checkpoint.Mean / 1e9
		}
		c.Close()
	})
	return res, runErr
}

// ExperimentReport is one experiment's machine-readable record: its
// rendered tables as structured data plus the instrumented probe.
type ExperimentReport struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	Tables []*Table     `json:"tables"`
	Probe  *ProbeResult `json:"probe,omitempty"`
}

// Report is the BENCH_<set>.json document.
type Report struct {
	Set         string             `json:"set"`
	Experiments []ExperimentReport `json:"experiments"`
}

// MaxDivergence returns the worst span-sum divergence across every
// probe in the report (the perf-smoke gate).
func (r *Report) MaxDivergence() float64 {
	var worst float64
	for _, e := range r.Experiments {
		if e.Probe != nil && e.Probe.SpanSumDivergence > worst {
			worst = e.Probe.SpanSumDivergence
		}
	}
	return worst
}

// RunJSON runs the given experiments with perf probes and writes the
// machine-readable report.
func RunJSON(set string, ids []string, w io.Writer) (*Report, error) {
	rep := &Report{Set: set}
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			return nil, err
		}
		probe, err := RunPerfProbe(ProbeFor(id))
		if err != nil {
			return nil, fmt.Errorf("%s: perf probe: %w", id, err)
		}
		rep.Experiments = append(rep.Experiments, ExperimentReport{
			ID: e.ID, Title: e.Title, Tables: e.Run(), Probe: &probe,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return rep, nil
}
