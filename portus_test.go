package portus_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	portus "github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

func smallSpec(t *testing.T) portus.Spec {
	t.Helper()
	spec, err := portus.ModelByName("squeezenet1_0")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestServerJobRoundTrip drives the whole public TCP API: server up,
// job connects, checkpoint, restore, verify content, shut down.
func TestServerJobRoundTrip(t *testing.T) {
	srv, err := portus.NewServer(portus.ServerConfig{
		PMemBytes: 64 << 20, MetaBytes: 16 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()

	job, err := portus.NewJob(portus.JobConfig{
		ServerCtrlAddr:   srv.CtrlAddr,
		ServerFabricAddr: srv.FabricAddr,
		GPUMemBytes:      32 << 20,
		Materialized:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job.Close()

	m, err := job.RegisterModel(smallSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	m.ApplyUpdate(12)
	if err := m.Checkpoint(job.Env(), 12); err != nil {
		t.Fatal(err)
	}
	m.ApplyUpdate(13)
	iter, err := m.Restore(job.Env())
	if err != nil {
		t.Fatal(err)
	}
	if iter != 12 {
		t.Fatalf("restored iteration %d, want 12", iter)
	}
	if bad := m.Placed().VerifyIteration(12); bad != -1 {
		t.Fatalf("tensor %d wrong after restore through public API", bad)
	}
	if st := srv.Daemon().Stats(); st.Checkpoints != 1 || st.Restores != 1 {
		t.Fatalf("server stats = %+v", st)
	}
}

// TestServerImagePersistence checkpoints through one server, saves the
// namespace image, and restores through a brand-new server process
// loading that image.
func TestServerImagePersistence(t *testing.T) {
	img := t.TempDir() + "/ns.img"
	spec := smallSpec(t)

	srv, err := portus.NewServer(portus.ServerConfig{
		PMemBytes: 64 << 20, MetaBytes: 16 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	job, err := portus.NewJob(portus.JobConfig{
		ServerCtrlAddr: srv.CtrlAddr, ServerFabricAddr: srv.FabricAddr,
		GPUMemBytes: 32 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := job.RegisterModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	m.ApplyUpdate(7)
	if err := m.Checkpoint(job.Env(), 7); err != nil {
		t.Fatal(err)
	}
	if err := srv.SaveImage(img); err != nil {
		t.Fatal(err)
	}
	m.Close()
	job.Close()
	srv.Close()

	srv2, err := portus.NewServer(portus.ServerConfig{ImagePath: img})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	go srv2.Serve()
	job2, err := portus.NewJob(portus.JobConfig{
		ServerCtrlAddr: srv2.CtrlAddr, ServerFabricAddr: srv2.FabricAddr,
		GPUMemBytes: 32 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer job2.Close()
	m2, err := job2.RegisterModel(spec) // re-register same structure
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	iter, err := m2.Restore(job2.Env())
	if err != nil {
		t.Fatal(err)
	}
	if iter != 7 {
		t.Fatalf("restored %d from image, want 7", iter)
	}
	if bad := m2.Placed().VerifyIteration(7); bad != -1 {
		t.Fatalf("tensor %d wrong after image round trip", bad)
	}
}

// TestTestbedSimulation drives the public simulation API: testbed,
// model, training loop with the async policy.
func TestTestbedSimulation(t *testing.T) {
	eng := portus.NewSimulation()
	var res portus.TrainResult
	eng.Go("experiment", func(env portus.Env) {
		tb, err := portus.NewTestbed(env, portus.TestbedConfig{
			ComputeNodes: 1, GPUsPerNode: 1,
			GPUMemBytes: 8 << 30, PMemBytes: 16 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		spec := portus.TableII()[2] // resnet50
		m, err := tb.PlaceModel(env, 0, 0, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err = portus.Train(env, portus.TrainConfig{
			Spec:       spec,
			Policy:     m.AsyncPolicy(),
			Interval:   10,
			Iterations: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	if res.Checkpoints != 5 {
		t.Fatalf("checkpoints = %d, want 5", res.Checkpoints)
	}
	if res.GPUUtilization() < 0.9 {
		t.Fatalf("async utilization = %.3f, want >0.9 for resnet50 at interval 10", res.GPUUtilization())
	}
	if res.Elapsed <= 0 || res.Throughput() <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

// TestPartitionPublicAPI sanity-checks the Megatron re-export.
func TestPartitionPublicAPI(t *testing.T) {
	shards, err := portus.Partition(portus.GPTFamily()[0], 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 8 {
		t.Fatalf("got %d shards", len(shards))
	}
	var total int64
	for _, s := range shards {
		total += s.Spec.TotalSize()
	}
	if total != portus.GPTFamily()[0].TotalSize() {
		t.Fatal("partition does not conserve bytes")
	}
}

// TestFleetPublicAPI exercises NewFleet with two sync members on a
// testbed.
func TestFleetPublicAPI(t *testing.T) {
	eng := portus.NewSimulation()
	eng.Go("experiment", func(env portus.Env) {
		tb, err := portus.NewTestbed(env, portus.TestbedConfig{
			ComputeNodes: 1, GPUsPerNode: 2,
			GPUMemBytes: 8 << 30, PMemBytes: 16 << 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		spec := portus.TableII()[0]
		shards, err := portus.Partition(spec, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		var members []portus.Checkpointer
		for i, sh := range shards {
			m, err := tb.PlaceModel(env, 0, i, sh.Spec)
			if err != nil {
				t.Fatal(err)
			}
			members = append(members, m.SyncPolicy())
		}
		fleet := portus.NewFleet("portus-sync", members)
		res, err := portus.Train(env, portus.TrainConfig{
			Spec:       spec,
			Policy:     fleet,
			Interval:   5,
			Iterations: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Checkpoints != 2 {
			t.Fatalf("fleet checkpoints = %d", res.Checkpoints)
		}
		if tb.Daemons[0].Stats().Checkpoints != 4 { // 2 checkpoints x 2 shards
			t.Fatalf("daemon saw %d shard checkpoints", tb.Daemons[0].Stats().Checkpoints)
		}
	})
	eng.Run()
}

// TestZooAccessors covers the zoo re-exports.
func TestZooAccessors(t *testing.T) {
	if len(portus.Zoo()) != 76 {
		t.Fatalf("Zoo() = %d models", len(portus.Zoo()))
	}
	if len(portus.TableII()) != 7 || len(portus.GPTFamily()) != 4 {
		t.Fatal("headline sets wrong")
	}
	if _, err := portus.ModelByName("definitely-not-a-model"); err == nil {
		t.Fatal("bogus model resolved")
	}
	if portus.TableII()[6].IterTime <= 0 {
		t.Fatal("calibrated iteration time missing")
	}
}

// TestShardedTierPublicAPI drives the sharded storage tier through the
// public surface: a 2-storage-node testbed, a model partitioned 2x2,
// group checkpoints, and a striped restore of the group-committed
// iteration.
func TestShardedTierPublicAPI(t *testing.T) {
	eng := portus.NewSimulation()
	eng.Go("experiment", func(env portus.Env) {
		// The daemon-config hook reaches every member before it is built:
		// each daemon ends up on the registry the hook handed its node.
		regs := map[string]*telemetry.Registry{}
		tb, err := portus.NewTestbed(env, portus.TestbedConfig{
			ComputeNodes: 2, GPUsPerNode: 2,
			GPUMemBytes: 16 << 20, PMemBytes: 32 << 20,
			StorageNodes: 2, Materialized: true,
		}, func(c *daemon.Config) {
			regs[c.NodeName] = telemetry.NewRegistry()
			c.Telemetry = regs[c.NodeName]
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Daemons) != 2 || tb.Placement.Len() != 2 {
			t.Fatalf("testbed has %d daemons over a %d-entry table, want 2/2", len(tb.Daemons), tb.Placement.Len())
		}
		for _, d := range tb.Daemons {
			if regs[d.NodeName()] == nil || d.Telemetry() != regs[d.NodeName()] {
				t.Fatalf("daemon-config hook did not reach member %s", d.NodeName())
			}
		}
		spec := portus.GPT("sharded-api", 4, 64, 512, 0)
		sm, err := tb.PlaceSharded(env, spec, 2, 2, portus.RouterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sm.Close()
		if len(sm.Shards()) != 4 {
			t.Fatalf("got %d shards, want 4", len(sm.Shards()))
		}

		for iter := uint64(1); iter <= 2; iter++ {
			sm.ApplyUpdate(iter)
			if err := sm.Checkpoint(env, iter); err != nil {
				t.Fatal(err)
			}
			if sm.Committed() != iter {
				t.Fatalf("committed %d after checkpointing %d", sm.Committed(), iter)
			}
		}

		sm.ApplyUpdate(99)
		iter, err := sm.Restore(env)
		if err != nil {
			t.Fatal(err)
		}
		if iter != 2 {
			t.Fatalf("restored iteration %d, want 2", iter)
		}
		for i := range sm.Shards() {
			if bad := sm.Placed(i).VerifyIteration(2); bad != -1 {
				t.Fatalf("shard %d tensor %d wrong after striped restore", i, bad)
			}
		}

		// Every daemon served at least one shard's traffic.
		for i, d := range tb.Daemons {
			if d.Stats().Checkpoints == 0 {
				t.Fatalf("daemon %d (%s) served no checkpoints — placement routed nothing there", i, d.NodeName())
			}
		}
	})
	eng.Run()
}

// TestTestbedReplaceMember kills one member of a 2-node rf=2 tier,
// starts its replacement on a fresh namespace through the testbed, and
// requires the router's Join to rebuild every shard on it.
func TestTestbedReplaceMember(t *testing.T) {
	eng := portus.NewSimulation()
	eng.Go("experiment", func(env portus.Env) {
		built := 0
		tb, err := portus.NewTestbed(env, portus.TestbedConfig{
			ComputeNodes: 1, GPUsPerNode: 4,
			GPUMemBytes: 16 << 20, PMemBytes: 32 << 20,
			StorageNodes: 2, Replicas: 2, Materialized: true,
		}, func(*daemon.Config) { built++ })
		if err != nil {
			t.Fatal(err)
		}
		sm, err := tb.PlaceSharded(env, portus.GPT("replace-api", 4, 64, 512, 0), 2, 2, portus.RouterOptions{Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer sm.Close()
		checkpoint := func(iter uint64) {
			sm.ApplyUpdate(iter)
			if err := sm.Checkpoint(env, iter); err != nil {
				t.Fatalf("checkpoint %d: %v", iter, err)
			}
		}
		checkpoint(1)

		victim := tb.Cluster.Storage[1].Name
		tb.Cluster.Fabric.CutNode(victim)
		tb.Net().Shutdown(env, victim)
		tb.Daemons[1].Halt(env)
		// The checkpoint that discovers the death may name the lagging
		// shard; from then on the survivor carries the stream alone.
		sm.ApplyUpdate(2)
		var lag *portus.ShardError
		if err := sm.Checkpoint(env, 2); err != nil && !errors.As(err, &lag) {
			t.Fatalf("checkpoint across the kill: %v", err)
		}
		checkpoint(3)

		tb.Cluster.Fabric.RestoreNode(victim)
		fresh := pmem.New(pmem.Config{
			Name: victim + "/replacement", DataSize: 32 << 20, MetaSize: 16 << 20,
			Materialized: true, Mode: pmem.Devdax,
		})
		d, err := tb.ReplaceMember(env, 1, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if tb.Daemons[1] != d || tb.Cluster.Storage[1].PMem != fresh || built != 3 {
			t.Fatalf("replacement not installed as member 1 (hook ran %d times, want 3)", built)
		}
		if err := sm.Router().Join(env, portus.PlacementNode{Name: victim, Weight: fresh.DataSize()}); err != nil {
			t.Fatal(err)
		}
		for _, sh := range sm.Shards() {
			im, err := d.Store().Lookup(sh.Spec.Name)
			if err != nil {
				t.Fatalf("replacement is missing shard %s: %v", sh.Spec.Name, err)
			}
			if _, v, ok := im.LatestDone(); !ok || v.Iteration != 3 {
				t.Fatalf("shard %s on the replacement at iteration %d, want 3", sh.Spec.Name, v.Iteration)
			}
		}
		// Its rebuilt copies were checkpoints too; the client's must come
		// on top of them.
		rebuilt := d.Stats().Checkpoints
		checkpoint(4)
		if d.Stats().Checkpoints == rebuilt {
			t.Fatal("replacement served no checkpoint after rejoining")
		}
	})
	eng.Run()
}

// TestServerCloseStopsDaemon: Close must take the daemon down with the
// listeners — a still-connected model's next call fails instead of
// being served by a server that no longer exists, and the worker pool
// and connection handlers do not outlive it.
func TestServerCloseStopsDaemon(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := portus.NewServer(portus.ServerConfig{
		PMemBytes: 64 << 20, MetaBytes: 16 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	job, err := portus.NewJob(portus.JobConfig{
		ServerCtrlAddr: srv.CtrlAddr, ServerFabricAddr: srv.FabricAddr,
		GPUMemBytes: 32 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := job.RegisterModel(smallSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(job.Env(), 1); err != nil {
		t.Fatal(err)
	}
	// The assertions hold under any interleaving; the sleeps only steer
	// towards the one that used to hang. Let the server drain the client's
	// trace report, then let the client see the close: with nothing unread
	// the server side sends a plain FIN, the client's next write still
	// succeeds, and only the client knowing its connection is gone keeps
	// the call from waiting forever.
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	time.Sleep(50 * time.Millisecond)
	if err := m.Checkpoint(job.Env(), 2); err == nil {
		t.Fatal("checkpoint against a closed server succeeded")
	}
	m.Close()
	job.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines outlive Server.Close (started with %d)", n, before)
	}
}

// TestClientRestartRecoversUnderSameNodeName is the paper's recovery
// scenario over real sockets: a training job checkpoints and dies, and
// its replacement — same node name, new process, new fabric agent —
// re-registers, restores the committed version byte-for-byte, and goes
// on checkpointing. The server must not keep talking to the dead job's
// agent.
func TestClientRestartRecoversUnderSameNodeName(t *testing.T) {
	srv, err := portus.NewServer(portus.ServerConfig{
		PMemBytes: 64 << 20, MetaBytes: 16 << 20, Materialized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()
	newJob := func() (*portus.Job, *portus.Model) {
		t.Helper()
		job, err := portus.NewJob(portus.JobConfig{
			ServerCtrlAddr: srv.CtrlAddr, ServerFabricAddr: srv.FabricAddr,
			NodeName: "client0", GPUMemBytes: 32 << 20, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := job.RegisterModel(smallSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		return job, m
	}

	job, m := newJob()
	m.ApplyUpdate(7)
	if err := m.Checkpoint(job.Env(), 7); err != nil {
		t.Fatal(err)
	}
	m.Close()
	job.Close()

	job, m = newJob()
	defer job.Close()
	defer m.Close()
	iter, err := m.Restore(job.Env())
	if err != nil {
		t.Fatalf("restore after client restart: %v", err)
	}
	if iter != 7 {
		t.Fatalf("restored iteration %d, want 7", iter)
	}
	if bad := m.Placed().VerifyIteration(7); bad != -1 {
		t.Fatalf("tensor %d wrong after restore into the restarted job", bad)
	}
	m.ApplyUpdate(8)
	if err := m.Checkpoint(job.Env(), 8); err != nil {
		t.Fatalf("checkpoint after client restart: %v", err)
	}
}

// describe asks the daemon behind conn for the REPLICATE of model's
// newest version: where its tensors sit in the data zone, under which
// rkey — what a peer would aim a one-sided verb at.
func describe(t *testing.T, env portus.Env, conn portus.Conn, model string) *wire.Msg {
	t.Helper()
	rep, err := wire.Call(env, conn, &wire.Msg{Type: wire.TDescribe, Model: model}, wire.TReplicate)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// tryWrite has intruder, a node that registered nothing with the daemon,
// zero the first tensor rep describes with a one-sided WRITE, then read
// it back with a READ, which re-replication needs to keep working.
func tryWrite(t *testing.T, env portus.Env, f rdma.Fabric, intruder *rdma.Node, rep *wire.Msg) {
	t.Helper()
	n := rep.Tensors[0].Size
	mr := intruder.RegisterMR(env, memdev.New(intruder.Name()+"/dram", memdev.DRAM, n, true), 0, n)
	zone := rdma.RemoteSlice{MR: rdma.RemoteMR{Node: rep.ClientNode, RKey: rep.Tensors[0].RKey, Off: rep.Tensors[0].Off, Len: n}, Len: n}
	if err := f.Write(env, intruder, rdma.Slice{MR: mr, Len: n}, zone); !errors.Is(err, rdma.ErrReadOnly) &&
		(err == nil || !strings.Contains(err.Error(), rdma.ErrReadOnly.Error())) {
		t.Fatalf("a peer's WRITE into the data zone = %v, want it refused", err)
	}
	if err := f.Read(env, intruder, rdma.Slice{MR: mr, Len: n}, zone); err != nil {
		t.Fatalf("a peer's READ of the data zone = %v, want it served", err)
	}
}

// TestPeersCannotWriteTheDataZone: the data zone is registered for
// remote reads only, so a peer that reaches the fabric agent cannot
// overwrite a tenant's committed slot — over TCP and in simulation —
// and the committed version still restores byte-identical.
func TestPeersCannotWriteTheDataZone(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		srv, err := portus.NewServer(portus.ServerConfig{PMemBytes: 64 << 20, MetaBytes: 16 << 20, Materialized: true})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		go srv.Serve()
		job, err := portus.NewJob(portus.JobConfig{
			ServerCtrlAddr: srv.CtrlAddr, ServerFabricAddr: srv.FabricAddr, GPUMemBytes: 32 << 20, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer job.Close()
		m, err := job.RegisterModel(smallSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		env := job.Env()
		m.ApplyUpdate(3)
		if err := m.Checkpoint(env, 3); err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial("tcp", srv.CtrlAddr)
		if err != nil {
			t.Fatal(err)
		}
		conn := wire.NewNetConn(c)
		defer conn.Close()
		rep := describe(t, env, conn, m.Placed().Spec.Name)
		fab := rdma.NewTCPFabric(env)
		defer fab.Close()
		fab.AddPeer(rep.ClientNode, srv.FabricAddr)
		tryWrite(t, env, fab, rdma.NewNode(env, "intruder"), rep)
		m.ApplyUpdate(4)
		if iter, err := m.Restore(env); err != nil || iter != 3 {
			t.Fatalf("restore after the refused WRITE = iteration %d, %v; want 3", iter, err)
		}
		if bad := m.Placed().VerifyIteration(3); bad != -1 {
			t.Fatalf("tensor %d not byte-identical after the refused WRITE", bad)
		}
	})
	t.Run("sim", func(t *testing.T) {
		eng := portus.NewSimulation()
		eng.Go("test", func(env portus.Env) {
			tb, err := portus.NewTestbed(env, portus.TestbedConfig{
				ComputeNodes: 1, GPUsPerNode: 1, GPUMemBytes: 32 << 20, PMemBytes: 64 << 20, Materialized: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			m, err := tb.PlaceModel(env, 0, 0, smallSpec(t))
			if err != nil {
				t.Fatal(err)
			}
			m.ApplyUpdate(3)
			if err := m.Checkpoint(env, 3); err != nil {
				t.Fatal(err)
			}
			conn, err := tb.Dial(env)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			tryWrite(t, env, tb.Cluster.Fabric, tb.Cluster.Compute[0].RNode, describe(t, env, conn, m.Placed().Spec.Name))
			m.ApplyUpdate(4)
			if iter, err := m.Restore(env); err != nil || iter != 3 {
				t.Fatalf("restore after the refused WRITE = iteration %d, %v; want 3", iter, err)
			}
			if bad := m.Placed().VerifyIteration(3); bad != -1 {
				t.Fatalf("tensor %d not byte-identical after the refused WRITE", bad)
			}
		})
		eng.Run()
	})
}

// TestAntiEntropyRetriesNextHolder: a rebuilt member's first holder
// serves bytes that no longer hash to its stamp (as after the holder
// reused the slot mid-pull). The rebuilt daemon refuses that copy, the
// router pulls it again from the next holder, and the rebuilt copy —
// the only one left once both holders are suspect — restores
// byte-identical.
func TestAntiEntropyRetriesNextHolder(t *testing.T) {
	eng := portus.NewSimulation()
	eng.Go("test", func(env portus.Env) {
		tb, err := portus.NewTestbed(env, portus.TestbedConfig{
			ComputeNodes: 1, GPUsPerNode: 4, GPUMemBytes: 16 << 20, PMemBytes: 32 << 20,
			StorageNodes: 3, Replicas: 3, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sm, err := tb.PlaceSharded(env, portus.GPT("retry", 4, 64, 512, 0), 2, 2, portus.RouterOptions{Replicas: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer sm.Close()
		rt := sm.Router()
		checkpoint := func(iter uint64) {
			sm.ApplyUpdate(iter)
			if err := sm.Checkpoint(env, iter); err != nil {
				t.Fatalf("checkpoint %d: %v", iter, err)
			}
		}
		checkpoint(1)
		victim := tb.Cluster.Storage[2].Name
		tb.Cluster.Fabric.CutNode(victim)
		tb.Net().Shutdown(env, victim)
		tb.Daemons[2].Halt(env)
		rt.MarkSuspect(env, victim)
		checkpoint(2)

		// Shard 0's first holder now serves bytes its stamp does not
		// cover.
		m0 := rt.Members()[0]
		first := slices.DeleteFunc(m0.Replicas(), func(n string) bool { return n == victim })[0]
		i := slices.IndexFunc(tb.Cluster.Storage, func(st *cluster.StorageNode) bool { return st.Name == first })
		im, err := tb.Daemons[i].Store().Lookup(m0.Shard)
		if err != nil {
			t.Fatal(err)
		}
		slot, _, _ := im.LatestDone()
		tb.Cluster.Storage[i].PMem.Data().Write(im.TensorData(0, slot).Off, bytes.Repeat([]byte{0xA5}, 64))

		tb.Cluster.Fabric.RestoreNode(victim)
		fresh := pmem.New(pmem.Config{Name: victim + "/replacement", DataSize: 32 << 20, MetaSize: 16 << 20, Materialized: true, Mode: pmem.Devdax})
		d, err := tb.ReplaceMember(env, 2, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Join(env, portus.PlacementNode{Name: victim, Weight: fresh.DataSize()}); err != nil {
			t.Fatalf("join with a bad first holder: %v", err)
		}
		if got := d.Telemetry().Counter("portus_daemon_crc_mismatch_total", "").Value(); got != 1 {
			t.Fatalf("the rebuilt daemon refused %d copies, want exactly the first holder's", got)
		}
		for _, n := range tb.Cluster.Storage[:2] {
			rt.MarkSuspect(env, n.Name)
		}
		sm.ApplyUpdate(99)
		if iter, err := sm.Restore(env); err != nil || iter != 2 {
			t.Fatalf("restore from the rebuilt member alone = iteration %d, %v; want 2", iter, err)
		}
		for i := range sm.Shards() {
			if bad := sm.Placed(i).VerifyIteration(2); bad != -1 {
				t.Fatalf("shard %d tensor %d not byte-identical from the rebuilt member", i, bad)
			}
		}
	})
	eng.Run()
}

// TestReplicateOverTCP: a second server rebuilds a model out of the
// first one's PMem over the TCP fabric — one-sided READs at each
// tensor's data-zone offset — and a job attached to it restores that
// version byte-identical.
func TestReplicateOverTCP(t *testing.T) {
	var srvs [2]*portus.Server
	for i := range srvs {
		srv, err := portus.NewServer(portus.ServerConfig{
			NodeName: cluster.StorageNodeName(i), PMemBytes: 64 << 20, MetaBytes: 16 << 20, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		go srv.Serve()
		srvs[i] = srv
	}
	attach := func(i int, iter uint64) (*portus.Job, *portus.Model) {
		job, err := portus.NewJob(portus.JobConfig{
			ServerCtrlAddr: srvs[i].CtrlAddr, ServerFabricAddr: srvs[i].FabricAddr, NodeName: fmt.Sprintf("client%d", i),
			GPUMemBytes: 32 << 20, Materialized: true, DeltaBlockBytes: 64 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := job.RegisterModel(smallSpec(t))
		if err != nil {
			t.Fatal(err)
		}
		m.ApplyUpdate(iter)
		return job, m
	}
	ja, ma := attach(0, 5)
	defer ja.Close()
	defer ma.Close()
	env := ja.Env()
	if err := ma.Checkpoint(env, 5); err != nil {
		t.Fatal(err)
	}
	ctrl := func(i int) wire.Conn {
		c, err := net.Dial("tcp", srvs[i].CtrlAddr)
		if err != nil {
			t.Fatal(err)
		}
		return wire.NewNetConn(c)
	}
	ca, cb := ctrl(0), ctrl(1)
	defer ca.Close()
	defer cb.Close()
	rep := describe(t, env, ca, ma.Placed().Spec.Name)
	// Each server is a group of one here, so the holder knows no fabric
	// address of its own to advertise; in a group it is its -peer entry.
	rep.FabricAddr = srvs[0].FabricAddr
	done, err := wire.Call(env, cb, rep, wire.TCheckpointDone)
	if err != nil || done.CRC != rep.CRC {
		t.Fatalf("REPLICATE over TCP = %+v, %v; want CHECKPOINT_DONE with the holder's stamp %016x", done, err, rep.CRC)
	}
	jb, mb := attach(1, 9)
	defer jb.Close()
	defer mb.Close()
	if iter, err := mb.Restore(jb.Env()); err != nil || iter != 5 {
		t.Fatalf("restore from the rebuilt server = iteration %d, %v; want 5", iter, err)
	}
	if bad := mb.Placed().VerifyIteration(5); bad != -1 {
		t.Fatalf("tensor %d not byte-identical from the rebuilt server", bad)
	}
}
