package daemon_test

import (
	"testing"

	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/store"
	"github.com/portus-sys/portus/internal/telemetry"
)

// countHashed wraps cfg's flush (fault-injected when in is non-nil) and
// counts the flushes asked to continue a stamp.
func countHashed(cfg *daemon.Config, in *faults.Injector, hashed *int) {
	flush := func(off, n int64, crc *uint32) error { cfg.PMem.FlushDataCRC(off, n, crc); return nil }
	if in != nil {
		flush = in.Flush(cfg.PMem)
	}
	cfg.Flush = func(off, n int64, crc *uint32) error {
		if crc != nil {
			*hashed++
		}
		return flush(off, n, crc)
	}
}

// TestInPassStampMatchesSlot: the stamp a full checkpoint carries
// through its flushes equals a fresh hash of the committed slot — with
// one chunk per tensor, with tensors split into many chunks, and with
// torn flushes healed by retries — and every flush of the checkpoint
// carried it, so commit read nothing.
func TestInPassStampMatchesSlot(t *testing.T) {
	for _, tc := range []struct {
		name  string
		chunk int64
		torn  float64
	}{
		{"chunk per tensor", 0, 0},
		{"split chunks", 256 << 10, 0},
		{"torn flushes", 0, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			eng.Go("test", func(env sim.Env) {
				hashed := 0
				var pm *pmem.Device
				d, placed, c := chunkedRig(t, env, func(cfg *daemon.Config) {
					pm = cfg.PMem
					cfg.ChunkSize = tc.chunk
					cfg.RetryMax = 30
					var in *faults.Injector
					if tc.torn > 0 {
						in = faults.NewInjector(faults.Config{Seed: 7, Flush: faults.Rule{Rate: tc.torn}})
					}
					countHashed(cfg, in, &hashed)
				})
				for iter := uint64(1); iter <= 3; iter++ {
					placed.ApplyUpdate(iter)
					before, ops := hashed, pm.DataFlushOps()
					if err := c.CheckpointSync(env, iter); err != nil {
						t.Fatal(err)
					}
					slot, h := doneHeader(t, d, iter)
					requireStamp(t, h.CRC)
					m, err := d.Store().Lookup("m")
					if err != nil {
						t.Fatal(err)
					}
					if fresh := store.ContentCRC(pm, m, slot); h.CRC != fresh {
						t.Fatalf("iteration %d: stamped %016x, slot hashes to %016x", iter, h.CRC, fresh)
					}
					if got, want := hashed-before, pm.DataFlushOps()-ops; int64(got) != want || got < len(m.Tensors) {
						t.Fatalf("iteration %d: %d of %d data flushes carried the stamp, want all", iter, got, want)
					}
					if split := pm.DataFlushOps()-ops > int64(len(m.Tensors)); tc.chunk > 0 && !split {
						t.Fatalf("iteration %d: ChunkSize %d split no tensor", iter, tc.chunk)
					}
				}
				if retries := d.Events().Count(telemetry.EvDatapathRetry); tc.torn > 0 && retries == 0 {
					t.Fatal("no torn flush was retried")
				}
			})
			eng.Run()
		})
	}
}
