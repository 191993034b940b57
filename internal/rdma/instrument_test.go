package rdma_test

import (
	"bytes"
	"strings"
	"testing"

	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

func TestInstrumentedFabricCountsVerbs(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		reg := telemetry.NewRegistry()
		inner := rdma.NewSimFabric()
		fab := rdma.Instrument("sim", inner, reg)

		a := rdma.NewNode(env, "a")
		b := rdma.NewNode(env, "b")
		inner.AddNode(a)
		inner.AddNode(b)
		devA := memdev.New("a/mem", memdev.DRAM, 4096, true)
		devB := memdev.New("b/mem", memdev.DRAM, 4096, true)
		mrA := a.RegisterMR(env, devA, 0, 4096)
		mrB := b.RegisterMR(env, devB, 0, 4096)
		devB.Write(0, bytes.Repeat([]byte{7}, 1024))

		local := rdma.Slice{MR: mrA, Off: 0, Len: 1024}
		remote := rdma.RemoteSlice{MR: rdma.RemoteMR{Node: "b", RKey: mrB.RKey, Len: 4096}, Len: 1024}
		// A verb against an unknown rkey counts as an error.
		bad := remote
		bad.MR.RKey = 999
		var errs []error
		post := func(write bool, ops ...rdma.Op) {
			fab.PostList(env, a, write, ops, func(_ int, err error) { errs = append(errs, err) })
		}
		post(false, rdma.Op{L: local, R: remote}, rdma.Op{L: local, R: bad})
		post(true, rdma.Op{L: local, R: remote})
		if len(errs) != 3 || errs[0] != nil || errs[1] == nil || errs[2] != nil {
			t.Fatalf("completions = %v, want only the bad-rkey op failed", errs)
		}

		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		out := buf.String()
		for _, want := range []string{
			`portus_rdma_op_seconds_count{fabric="sim",op="read"} 1`,
			`portus_rdma_op_seconds_count{fabric="sim",op="write"} 1`,
			`portus_rdma_bytes_total{fabric="sim",op="read"} 1024`,
			`portus_rdma_errors_total{fabric="sim"} 1`,
		} {
			if !strings.Contains(out, want) {
				t.Errorf("exposition missing %q:\n%s", want, out)
			}
		}
		if strings.Contains(out, `op="send"`) {
			t.Errorf("exposition carries a send series:\n%s", out)
		}
		// Latency histograms must have recorded the simulated transfer
		// time of successful verbs.
		samples, err := telemetry.ParseText(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []string{"read", "write"} {
			if _, ok := telemetry.HistogramQuantile(samples, "portus_rdma_op_seconds", 0.5,
				telemetry.L("fabric", "sim"), telemetry.L("op", op)); !ok {
				t.Errorf("no rdma %s latency histogram in exposition", op)
			}
		}
	})
	eng.Run()
}
