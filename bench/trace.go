package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/telemetry"
)

// span is one timed interval of the traced run. Harness spans wrap the
// calls the load generator makes into the program; program spans are
// the program's own stitched client+daemon trees, hung under the
// harness span of the call that caused them.
type span struct {
	Op     int    `json:"op"`     // one id per closed-loop step
	ID     int    `json:"id"`     // unique within the file
	Parent int    `json:"parent"` // 0 for an op's root
	Name   string `json:"name"`
	// Clock says which timeline Start/End are on. "harness": µs since
	// the traced section began. "program": µs on the program's own
	// env clock (client and daemon each count from their own start on a
	// TCP rig; virtual time under the engine) — durations compare
	// across clocks, absolute times only within one.
	Clock string `json:"clock"`
	Start int64  `json:"start_us"`
	End   int64  `json:"end_us"`
}

// opSpan is the handle of an op's root span.
type opSpan struct{ op, root int }

// tracer records harness spans in memory. A nil tracer records nothing,
// which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
	// calls maps kind/model/iteration to the harness span of that call,
	// so the program's trace of the same request can be hung under it.
	calls map[string]int
	// prog collects the daemon halves of the program's traces as they
	// complete.
	prog []*telemetry.Trace
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), calls: make(map[string]int)}
}

// watch subscribes to the daemons' trace rings.
func (tr *tracer) watch(daemons []*daemon.Daemon) {
	for _, d := range daemons {
		d.Traces().OnComplete(func(t *telemetry.Trace) {
			tr.mu.Lock()
			tr.prog = append(tr.prog, t)
			tr.mu.Unlock()
		})
	}
}

func (tr *tracer) us(t time.Time) int64 { return t.Sub(tr.t0).Microseconds() }

func (tr *tracer) add(s span) int {
	s.ID = len(tr.spans) + 1
	s.Clock = "harness"
	tr.spans = append(tr.spans, s)
	return s.ID
}

func (tr *tracer) begin(kind, unit string, it uint64) *opSpan {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.ops++
	id := tr.add(span{Op: tr.ops, Name: fmt.Sprintf("op:%s %s@%d", kind, unit, it), Start: tr.us(time.Now())})
	return &opSpan{op: tr.ops, root: id}
}

func (tr *tracer) end(op *opSpan) {
	if tr == nil || op == nil {
		return
	}
	tr.mu.Lock()
	tr.spans[op.root-1].End = tr.us(time.Now())
	tr.mu.Unlock()
}

// span records [start, now) under op and returns the span's id.
func (tr *tracer) span(op *opSpan, name string, start time.Time) int {
	if tr == nil || op == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.add(span{Op: op.op, Parent: op.root, Name: name, Start: tr.us(start), End: tr.us(time.Now())})
}

// program remembers that harness span id was the call for this request.
func (tr *tracer) program(id int, kind, model string, it uint64) {
	if tr == nil || id == 0 {
		return
	}
	tr.mu.Lock()
	tr.calls[callKey(kind, model, it)] = id
	tr.mu.Unlock()
}

// groupOf strips a Megatron shard suffix off a model name.
func groupOf(model string) string {
	group, _, _ := strings.Cut(model, "/mp_rank_")
	return group
}

func callKey(kind, model string, it uint64) string {
	return fmt.Sprintf("%s/%s/%d", kind, model, it)
}

// tile is, per op, the share of the op's duration its top-level spans
// cover. 1 means the spans tile the op.
func (tr *tracer) tile() []float64 {
	covered := make(map[int]int64)
	for _, s := range tr.spans {
		if s.Parent != 0 && tr.spans[s.Parent-1].Parent == 0 && s.Clock == "harness" {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for _, s := range tr.spans {
		if s.Parent == 0 && s.End > s.Start {
			out = append(out, float64(covered[s.ID])/float64(s.End-s.Start))
		}
	}
	return out
}

// graft hangs the program's retained traces (stitched where the
// client's half arrived) under the harness spans of their calls.
func (tr *tracer) graft(daemons []*daemon.Daemon) {
	for _, d := range daemons {
		for _, t := range d.Traces().Snapshot() {
			// A sharded group checkpoint is one harness call and one
			// program trace per shard copy, named <group>/mp_rank_...
			parent, ok := tr.calls[callKey(t.Kind, groupOf(t.Model), t.Iteration)]
			if !ok {
				continue
			}
			tr.flatten(t.Root, tr.spans[parent-1].Op, parent)
		}
	}
}

func (tr *tracer) flatten(s *telemetry.Span, op, parent int) {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		Op: op, ID: id, Parent: parent, Name: s.Name, Clock: "program",
		Start: s.Start.Microseconds(), End: s.End.Microseconds(),
	})
	for _, c := range s.Children {
		tr.flatten(c, op, id)
	}
}

// write stores the spans as bench/out/trace-<workload>.json.
func (tr *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}

// daemonStages are the top-level spans of a daemon checkpoint trace.
var daemonStages = []string{"enqueue-wait", "pull", "flush", "copy-forward", "commit"}

// stageTimes returns, for each daemon stage, its duration in every
// successful daemon-side trace of the given kind.
func stageTimes(traces []*telemetry.Trace, kind string) map[string][]float64 {
	out := make(map[string][]float64)
	for _, t := range traces {
		if t.Kind != kind || t.Err != "" {
			continue
		}
		per := make(map[string]float64)
		for _, c := range t.Root.Children {
			per[c.Name] += c.Dur().Seconds()
		}
		for _, name := range daemonStages {
			out[name] = append(out[name], per[name])
		}
	}
	return out
}

// clientStages returns per stitched checkpoint trace the client-side
// send, await and digest span durations.
func clientStages(daemons []*daemon.Daemon) map[string][]float64 {
	out := make(map[string][]float64)
	for _, d := range daemons {
		for _, t := range d.Traces().Snapshot() {
			if !t.Stitched || t.Kind != "checkpoint" {
				continue
			}
			per := make(map[string]float64)
			for _, c := range t.Root.Children {
				per[c.Name] += c.Dur().Seconds()
			}
			for _, name := range []string{"send", "await", "digest"} {
				out[name] = append(out[name], per[name])
			}
		}
	}
	return out
}
