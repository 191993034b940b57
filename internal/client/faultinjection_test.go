package client_test

import (
	"errors"
	"strings"
	"testing"

	"github.com/portus-sys/portus/internal/client"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/wire"
)

// flakyFabric fails one-sided reads while armed, modeling RNIC
// completion errors mid-pull.
type flakyFabric struct {
	rdma.Fabric
	failReads bool
	failed    int
}

var errInjected = errors.New("injected RNIC completion error")

func (f *flakyFabric) PostList(env sim.Env, local *rdma.Node, write bool, ops []rdma.Op, done func(i int, err error)) {
	if write || !f.failReads {
		f.Fabric.PostList(env, local, write, ops, done)
		return
	}
	for i := range ops {
		f.failed++
		done(i, errInjected)
	}
}

// TestPullFailureLeavesConsistentState injects verb failures into a
// checkpoint pull and verifies: the client sees the error, the victim
// slot never reaches done, the previous version stays restorable, and
// the system recovers fully once the fabric heals.
func TestPullFailureLeavesConsistentState(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		cl, err := clusterForFault(t, env)
		if err != nil {
			t.Fatal(err)
		}
		flaky := &flakyFabric{Fabric: cl.fabric}
		d, err := daemon.New(env, daemon.Config{PMem: cl.pm, RNode: cl.storage, Fabric: flaky})
		if err != nil {
			t.Fatal(err)
		}
		net := wire.NewSimNet()
		l, err := net.Listen(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("serve", func(env sim.Env) { d.Serve(env, l) })

		placed, err := gpu.Place(cl.gpu, tinySpec("m"))
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		c, err := client.Register(env, conn, cl.client, placed)
		if err != nil {
			t.Fatal(err)
		}

		// A good checkpoint first.
		placed.ApplyUpdate(1)
		if err := c.CheckpointSync(env, 1); err != nil {
			t.Fatal(err)
		}

		// Break the fabric; the next checkpoint must fail loudly.
		flaky.failReads = true
		placed.ApplyUpdate(2)
		err = c.CheckpointSync(env, 2)
		if err == nil || !strings.Contains(err.Error(), "injected RNIC") {
			t.Fatalf("checkpoint during fault = %v, want injected error", err)
		}
		if flaky.failed == 0 {
			t.Fatal("fault never triggered")
		}

		// The victim slot must be visibly incomplete and iteration 1
		// still restorable.
		m, err := d.Store().Lookup("m")
		if err != nil {
			t.Fatal(err)
		}
		if _, v, ok := m.LatestDone(); !ok || v.Iteration != 1 {
			t.Fatalf("latest done after fault = %+v ok=%v, want iteration 1", v, ok)
		}
		if s := m.VersionHeader(m.TargetSlot()).State; s == index.StateDone {
			t.Fatal("victim slot reached done despite failed pull")
		}

		// Heal the fabric: the same model checkpoints and restores fine.
		flaky.failReads = false
		placed.ApplyUpdate(3)
		if err := c.CheckpointSync(env, 3); err != nil {
			t.Fatalf("checkpoint after heal: %v", err)
		}
		placed.ApplyUpdate(4)
		iter, err := c.Restore(env)
		if err != nil || iter != 3 {
			t.Fatalf("restore after heal = %d, %v", iter, err)
		}
		if bad := placed.VerifyIteration(3); bad != -1 {
			t.Fatalf("tensor %d wrong after heal", bad)
		}
	})
	eng.Run()
}

// minimal fault-test topology (distinct from the harness: we need to
// wrap the fabric before the daemon sees it).
type faultCluster struct {
	fabric  *rdma.SimFabric
	storage *rdma.Node
	client  *rdma.Node
	gpu     *gpu.GPU
	pm      *pmem.Device
}

func clusterForFault(t *testing.T, env sim.Env) (*faultCluster, error) {
	t.Helper()
	f := rdma.NewSimFabric()
	storage := rdma.NewNode(env, "storage")
	clientNode := rdma.NewNode(env, "client0")
	f.AddNode(storage)
	f.AddNode(clientNode)
	g := gpu.New("gpu0", 8<<20, true)
	pm := pmem.New(pmem.Config{Name: "pm", DataSize: 16 << 20, MetaSize: 8 << 20, Materialized: true})
	return &faultCluster{fabric: f, storage: storage, client: clientNode, gpu: g, pm: pm}, nil
}
