package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/serialize"
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

// TestImageRepackViewDump drives `portusctl -image` in process: a saved
// namespace holding one model checkpointed twice and one never
// checkpointed is repacked (the never-done model removed, the kept
// model's outdated slot released), viewed and dumped; a daemon that
// reopens the repacked image restores the kept model byte-identical;
// and dump refuses an image with one rotted byte in the archived slot.
func TestImageRepackViewDump(t *testing.T) {
	const block = 4 << 10
	dir := t.TempDir()
	image := filepath.Join(dir, "ns.img")
	var ref []uint64
	rig := func(env sim.Env, pm *pmem.Device) (*cluster.Cluster, *wire.SimNet) {
		cl, err := cluster.New(env, cluster.Config{
			ComputeNodes: 1, GPUsPerNode: 1, GPUMemBytes: 8 << 20,
			PMemBytes: 16 << 20, PMemMetaBytes: index.AllocTableLen + 256<<10, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if pm == nil {
			pm = cl.Storage[0].PMem
		}
		d, err := daemon.New(env, daemon.Config{PMem: pm, RNode: cl.Storage[0].RNode, Fabric: cl.Fabric})
		if err != nil {
			t.Fatal(err)
		}
		net := wire.NewSimNet()
		l, err := net.Listen(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("serve", func(env sim.Env) { d.Serve(env, l) })
		return cl, net
	}
	register := func(env sim.Env, cl *cluster.Cluster, net *wire.SimNet, name string) (*gpu.PlacedModel, *client.Client) {
		placed, err := gpu.Place(cl.GPU(0, 0), model.GPT(name, 2, 32, 128, 0))
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Register(env, conn, cl.Compute[0].RNode, placed)
		if err != nil {
			t.Fatal(err)
		}
		return placed, c
	}

	eng := sim.NewEngine()
	eng.Go("save", func(env sim.Env) {
		cl, net := rig(env, nil)
		placed, c := register(env, cl, net, "kept")
		for it := uint64(1); it <= 2; it++ {
			placed.ApplyUpdate(it)
			if err := c.CheckpointSync(env, it); err != nil {
				t.Fatal(err)
			}
		}
		ref = placed.BlockDigests(block)
		register(env, cl, net, "never")
		if err := cl.Storage[0].PMem.SaveImageFile(image); err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()

	out := ctl(t, image, "repack")
	if !strings.Contains(out, "kept 1 models, removed 1, reclaimed 1 slots") {
		t.Fatalf("repack report: %s", out)
	}
	if out := ctl(t, image, "view"); !strings.Contains(out, "kept") || strings.Contains(out, "never") {
		t.Fatalf("view of the repacked image: %s", out)
	}
	archive := filepath.Join(dir, "kept.ckpt")
	if out := ctl(t, image, "dump", "kept", archive); !strings.Contains(out, "dumped kept iteration 2") {
		t.Fatalf("dump: %s", out)
	}
	f, err := os.Open(archive)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if ckpt, err := serialize.Decode(f); err != nil || ckpt.Model != "kept" || ckpt.Iteration != 2 {
		t.Fatalf("archive decodes to %+v, %v", ckpt, err)
	}

	eng = sim.NewEngine()
	eng.Go("reopen", func(env sim.Env) {
		pm, err := pmem.LoadImageFile("pm", image)
		if err != nil {
			t.Fatal(err)
		}
		cl, net := rig(env, pm)
		placed, c := register(env, cl, net, "kept")
		if it, err := c.Restore(env); err != nil || it != 2 {
			t.Fatalf("restore from the repacked image = %d, %v", it, err)
		}
		if bad := placed.VerifyDigests(block, ref); bad != -1 {
			t.Fatalf("restored block %d differs from iteration 2", bad)
		}
	})
	eng.Run()

	pm, err := pmem.LoadImageFile("pm", image)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Open(pm)
	if err != nil {
		t.Fatal(err)
	}
	m, err := idx.Lookup("kept")
	if err != nil {
		t.Fatal(err)
	}
	slot, _, _ := m.LatestDone()
	at := m.TensorData(0, slot).Off
	pm.Data().Write(at, []byte{pm.Data().Bytes(at, 1)[0] ^ 0x10})
	pm.FlushData(at, 1)
	rotted := filepath.Join(dir, "rotted.img")
	if err := pm.SaveImageFile(rotted); err != nil {
		t.Fatal(err)
	}
	if err := run(rotted, "", "", []string{"dump", "kept", filepath.Join(dir, "rotted.ckpt")}); err == nil ||
		!strings.Contains(err.Error(), "iteration 2 failed integrity check") {
		t.Fatalf("dump of a rotted image = %v, want the integrity refusal", err)
	}
}

// ctl runs one `portusctl -image image args…` command in process and
// returns what it printed.
func ctl(t *testing.T, image string, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(image, "", "", args)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("portusctl -image %s %v: %v", image, args, err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
