// The scale experiment exercises the sharded storage tier end to end:
// GPT-1.5B partitioned Megatron-style, every shard registered with the
// storage daemon the placement map assigns it, group checkpoints fanned
// out by the client router. Sweeping the storage-node count shows
// aggregate checkpoint bandwidth growing past the single-PMem-device
// write ceiling that bounds the paper's one-AEP-node testbed.

package experiments

import (
	"fmt"
	"time"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/metrics"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/sim"
)

// The scale grid: GPT-1.5B over 2 tensor-parallel ranks × 4 pipeline
// stages = 8 shards on 2 compute nodes with 4 GPUs each. Eight shard
// keys rendezvous-hash evenly over 1, 2, and 4 storage nodes, so every
// sweep point exercises a balanced tier.
const (
	scaleTP           = 2
	scalePP           = 4
	scaleComputeNodes = 2
	scaleGPUsPerNode  = 4
)

// scaleSpeedupFloor is the acceptance bar: 4 storage nodes must deliver
// at least this multiple of the 1-node aggregate checkpoint throughput.
const scaleSpeedupFloor = 2.5

// scaleConfig sizes the sweep cluster for n storage nodes.
func scaleConfig(storageNodes int) portus.TestbedConfig {
	return portus.TestbedConfig{
		ComputeNodes: scaleComputeNodes,
		GPUsPerNode:  scaleGPUsPerNode,
		GPUMemBytes:  48 << 30,
		StorageNodes: storageNodes,
		PMemBytes:    256 << 30,
		Materialized: false,
	}
}

// scalePoint is one sweep measurement.
type scalePoint struct {
	Nodes    int
	Shards   int
	Bytes    int64 // one group checkpoint's payload
	PerRound time.Duration
	// Throughput is aggregate checkpoint bandwidth in bytes/sec of
	// virtual time.
	Throughput float64
}

// runScalePoint checkpoints GPT-1.5B rounds times through an n-node
// tier and measures aggregate throughput.
func runScalePoint(storageNodes, rounds int) scalePoint {
	spec := model.GPTFamily()[0] // gpt-1.5b
	pt := scalePoint{Nodes: storageNodes, Shards: scaleTP * scalePP, Bytes: spec.TotalSize()}
	runEngine(func(env sim.Env) {
		tb, err := portus.NewTestbed(env, scaleConfig(storageNodes))
		if err != nil {
			panic(err)
		}
		sm, err := tb.PlaceSharded(env, spec, scaleTP, scalePP, portus.RouterOptions{})
		if err != nil {
			panic(err)
		}
		defer sm.Close()
		start := env.Now()
		for it := 1; it <= rounds; it++ {
			if err := sm.Checkpoint(env, uint64(it)); err != nil {
				panic(err)
			}
		}
		elapsed := env.Now() - start
		pt.PerRound = elapsed / time.Duration(rounds)
		pt.Throughput = float64(pt.Bytes) * float64(rounds) / elapsed.Seconds()
	})
	return pt
}

// gbps renders bytes/sec as GB/s.
func gbps(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f GB/s", bytesPerSec/1e9)
}

// Scale sweeps the storage tier over 1, 2, and 4 nodes and reports
// aggregate checkpoint throughput of GPT-1.5B at each size. Panics if
// the 4-node tier falls under the 2.5× acceptance floor so the CI
// perf-smoke job fails loudly on a scaling regression.
func Scale() []*Table {
	const rounds = 3
	points := []scalePoint{
		runScalePoint(1, rounds),
		runScalePoint(2, rounds),
		runScalePoint(4, rounds),
	}
	base := points[0].Throughput
	t := &Table{
		ID: "scale",
		Title: fmt.Sprintf("Sharded storage tier: GPT-1.5B (%s, %d shards) group checkpoint vs storage nodes",
			metrics.FormatBytes(points[0].Bytes), points[0].Shards),
		Header: []string{"Storage nodes", "Checkpoint time", "Aggregate throughput", "Speedup"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Nodes), secs(p.PerRound), gbps(p.Throughput),
			fmt.Sprintf("%.2fx", p.Throughput/base),
		})
	}
	speedup4 := points[2].Throughput / base
	t.Notes = append(t.Notes,
		fmt.Sprintf("1 node is bounded by a single PMem device's write bandwidth; 4 nodes by the compute-side NICs (%.2fx, floor %.1fx)",
			speedup4, scaleSpeedupFloor),
		"shards rendezvous-hash evenly over every tier size, so added nodes carry proportional load")
	if speedup4 < scaleSpeedupFloor {
		panic(fmt.Sprintf("scale: 4-node throughput %.2fx the 1-node figure, want >= %.1fx", speedup4, scaleSpeedupFloor))
	}
	return []*Table{t}
}
