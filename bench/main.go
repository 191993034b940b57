// Command bench is the repository's benchmark: four closed-loop
// workloads measured on two clocks — wall time over loopback TCP with
// real bytes, and virtual time under the discrete-event engine — with a
// traced mode that adds per-layer probes. README.md explains every
// metric; BENCHMARK.json at the repository root names the command.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "one of: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "iteration base (content patterns, dirty-block choice) and tcp-small's model order")
		seconds = flag.Float64("seconds", 15, "how long the measured section runs")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		out     = flag.String("out", filepath.Join("bench", "out"), "directory for trace files and the scratch namespace image")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: bench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, outDir: *out, setups: 3, twinOps: 48}

	var m *metrics
	var attempted, failed int
	var err error
	if *trace == 0 {
		m = newMetrics(endToEnd)
		attempted, failed, err = w.runEndToEnd(o, m)
	} else {
		m = newMetrics(perLayer)
		attempted, failed, err = w.runTraced(o, m, probeSize{})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, name := range m.missing() {
		m.errs = append(m.errs, "metric never emitted: "+name)
	}
	if len(m.errs) > 0 {
		fmt.Fprintln(os.Stderr, "bench: "+strings.Join(m.errs, "\nbench: "))
		os.Exit(1)
	}
	m.print(os.Stdout)
	fmt.Println(m.resultLine(failed == 0, attempted, failed))
	if failed != 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
