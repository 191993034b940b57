package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported number. BENCHMARK.json mirrors these
// tables; bench_test.go fails when the two drift apart.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what every workload reports with --trace 0: what a
// training job waiting on its checkpoint, and the operator paying for
// the storage node, would see. README.md has the glossary.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"checkpoint_p50_s", "s"},
	{"checkpoint_tail_s", "s"},
	{"restore_p50_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_s_per_gib", "s/GiB"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mib", "MiB"},
	{"fabric_byte_ratio", "ratio"},
	{"pmem_space_ratio", "ratio"},
	{"virt_checkpoint_gib_s", "GiB/s"},
	{"virt_restore_gib_s", "GiB/s"},
}

// metrics collects named values in emission order and refuses a name
// it was not told about or sees twice.
type metrics struct {
	defs   map[string]string // name -> unit
	order  []string
	values map[string]float64
	errs   []string
}

func newMetrics(defs []metricDef) *metrics {
	m := &metrics{defs: make(map[string]string), values: make(map[string]float64)}
	for _, d := range defs {
		m.defs[d.Name] = d.Unit
	}
	return m
}

func (m *metrics) set(name string, v float64) {
	switch _, known := m.defs[name]; {
	case !known:
		m.errs = append(m.errs, "undeclared metric "+name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		m.errs = append(m.errs, fmt.Sprintf("metric %s is %v", name, v))
	default:
		if _, dup := m.values[name]; dup {
			m.errs = append(m.errs, "metric emitted twice: "+name)
			return
		}
		m.order = append(m.order, name)
		m.values[name] = v
	}
}

// missing lists declared metrics that were never set.
func (m *metrics) missing() []string {
	var out []string
	for name := range m.defs {
		if _, ok := m.values[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// print writes one "name value unit" line per metric.
func (m *metrics) print(w io.Writer) {
	for _, name := range m.order {
		fmt.Fprintf(w, "%-40s %-14.6g %s\n", name, m.values[name], m.defs[name])
	}
}

// resultLine renders the driver's contract: the last line of stdout.
func (m *metrics) resultLine(correct bool, attempted, failed int) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{correct, attempted, failed, make(map[string]mv)}
	for name, v := range m.values {
		out.Metrics[name] = mv{v, m.defs[name]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	return string(b)
}

// quantile returns the q-quantile (nearest rank) of xs, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest quantile with at least ten samples beyond
// it, never below the median: p75 at 40 samples, p95 at 200.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return 1 - 10/float64(n)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

const gib = float64(1 << 30)
