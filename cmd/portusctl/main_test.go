package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/stats.golden from the current rendering")

// TestStatsGolden pins `portusctl stats`: a simulated-clock daemon,
// deterministic to the nanosecond, is driven through register, a full
// checkpoint, a delta-requesting checkpoint that falls back to full, a
// restore and an online repack pass, and the rendering of its scrape
// must equal testdata/stats.golden. Regenerate with `go test
// ./cmd/portusctl -update` and review the diff.
func TestStatsGolden(t *testing.T) {
	var scrape bytes.Buffer
	eng := sim.NewEngine()
	eng.Go("drive", func(env sim.Env) {
		cl, err := cluster.New(env, cluster.Config{
			ComputeNodes: 1, GPUsPerNode: 1,
			GPUMemBytes: 8 << 20, PMemBytes: 16 << 20, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := daemon.New(env, daemon.Config{
			PMem: cl.Storage[0].PMem, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric,
			DeltaEnabled: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		net := wire.NewSimNet()
		l, err := net.Listen(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("serve", func(env sim.Env) { d.Serve(env, l) })
		placed, err := gpu.Place(cl.GPU(0, 0), model.GPT("m", 2, 32, 128, 0))
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.RegisterOpts(env, conn, cl.Compute[0].RNode, placed,
			client.Options{DeltaBlockBytes: 4 << 10})
		if err != nil {
			t.Fatal(err)
		}
		for it := uint64(1); it <= 2; it++ {
			placed.ApplyUpdate(it)
			if err := c.CheckpointSync(env, it); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.Restore(env); err != nil {
			t.Fatal(err)
		}
		admin, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.Call(env, admin, &wire.Msg{Type: wire.TRepack}, wire.TRepackResp); err != nil {
			t.Fatal(err)
		}
		d.Telemetry().WritePrometheus(&scrape)
	})
	eng.Run()

	samples, err := telemetry.ParseText(&scrape)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	renderStats(&out, samples)
	golden := filepath.Join("testdata", "stats.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("portusctl stats differs from %s:\n%s", golden, out.Bytes())
	}
}
