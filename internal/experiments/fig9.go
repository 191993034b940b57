package experiments

import (
	"fmt"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/baseline"
	"github.com/portus-sys/portus/internal/fsim"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/train"
)

// Fig9 reproduces the training-timeline comparison of Figure 9: the
// same model trained under the four checkpoint policies — PyTorch's
// synchronous torch.save, CheckFreq's snapshot-then-persist, and
// Portus's synchronous and asynchronous modes — checkpointing every
// iteration (the policy-differentiating regime the figure draws).
func Fig9() []*Table {
	spec := model.TableII()[5] // vit_l_32
	const iters = 20

	type outcome struct {
		name string
		res  train.Result
	}
	var outcomes []outcome
	run := func(name string, mk func(env sim.Env, tb *portus.Testbed) train.Checkpointer) {
		var res train.Result
		runEngine(func(env sim.Env) {
			tb, err := portus.NewTestbed(env, voltaConfig())
			if err != nil {
				panic(err)
			}
			res, err = train.Run(env, train.Config{
				Spec:       spec,
				Policy:     mk(env, tb),
				Interval:   1,
				Iterations: iters,
			})
			if err != nil {
				panic(err)
			}
		})
		outcomes = append(outcomes, outcome{name: name, res: res})
	}

	run("PyTorch torch.save (Fig 9a)", func(env sim.Env, tb *portus.Testbed) train.Checkpointer {
		placed, err := gpu.Place(tb.Cluster.GPU(0, 0), spec)
		if err != nil {
			panic(err)
		}
		return baseline.NewTorchSave(fsim.NewBeeGFS(tb.Cluster.Storage[0]), tb.Cluster.Compute[0], placed)
	})
	run("CheckFreq (Fig 9b)", func(env sim.Env, tb *portus.Testbed) train.Checkpointer {
		placed, err := gpu.Place(tb.Cluster.GPU(0, 0), spec)
		if err != nil {
			panic(err)
		}
		return baseline.NewCheckFreq(fsim.NewBeeGFS(tb.Cluster.Storage[0]), tb.Cluster.Compute[0], placed)
	})
	run("Portus sync (Fig 9c)", func(env sim.Env, tb *portus.Testbed) train.Checkpointer {
		m, err := tb.PlaceModel(env, 0, 0, spec)
		if err != nil {
			panic(err)
		}
		return m.SyncPolicy()
	})
	run("Portus async (Fig 9d)", func(env sim.Env, tb *portus.Testbed) train.Checkpointer {
		m, err := tb.PlaceModel(env, 0, 0, spec)
		if err != nil {
			panic(err)
		}
		return m.AsyncPolicy()
	})

	t := &Table{
		ID:     "fig9",
		Title:  fmt.Sprintf("Training timeline under each policy (%s, checkpoint every iteration, %d iterations)", spec.Name, iters),
		Header: []string{"Policy", "Total time", "Stall/iteration", "GPU util", "vs torch.save"},
	}
	base := outcomes[0].res.Elapsed
	for _, o := range outcomes {
		t.Rows = append(t.Rows, []string{
			o.name,
			secs(o.res.Elapsed),
			secs(o.res.StallTime / iters),
			pct(o.res.GPUUtilization()),
			ratio(base, o.res.Elapsed),
		})
	}
	t.Notes = append(t.Notes,
		"torch.save blocks for snapshot+serialize+write every iteration; CheckFreq hides the write but stalls on the previous persist at this frequency",
		"Portus-sync blocks only for the one-sided pull; Portus-async hides the pull behind the next iteration's forward+backward (Figure 9(d))",
	)
	return []*Table{t}
}
