package experiments

import (
	"testing"
	"time"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
)

// TestDaemonAblationPathsStillCorrect: the ablation datapaths — host
// staging and two-sided — make a checkpoint slower, which shows the
// wrapper was in the daemon's path, but a restore of it is still
// byte-identical.
func TestDaemonAblationPathsStillCorrect(t *testing.T) {
	cfg := portus.TestbedConfig{ComputeNodes: 1, GPUsPerNode: 1, GPUMemBytes: 8 << 20, PMemBytes: 16 << 20, Materialized: true}
	checkpoint := func(t *testing.T, tune ...func(*daemon.Config)) (took time.Duration) {
		runEngine(func(env sim.Env) {
			tb, err := portus.NewTestbed(env, cfg, tune...)
			if err != nil {
				t.Fatal(err)
			}
			m, err := tb.PlaceModel(env, 0, 0, model.GPT("m", 2, 32, 128, 0))
			if err != nil {
				t.Fatal(err)
			}
			m.ApplyUpdate(3)
			start := env.Now()
			if err := m.Checkpoint(env, 3); err != nil {
				t.Fatal(err)
			}
			took = env.Now() - start
			m.ApplyUpdate(4)
			if iter, err := m.Restore(env); err != nil || iter != 3 {
				t.Fatalf("restore = %d, %v", iter, err)
			}
			if bad := m.Placed().VerifyIteration(3); bad != -1 {
				t.Fatalf("tensor %d wrong after the restore", bad)
			}
		})
		return took
	}
	zeroCopy := checkpoint(t)
	for _, tc := range []struct {
		name string
		tune func(*daemon.Config)
	}{
		{"host-staged", withHostStaging},
		{"two-sided", withTwoSided},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if took := checkpoint(t, tc.tune); took <= zeroCopy {
				t.Fatalf("checkpoint took %v, the zero-copy one %v: the ablation charged nothing", took, zeroCopy)
			}
		})
	}
}
