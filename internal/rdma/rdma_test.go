package rdma

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/sim"
)

// testPair builds a client (with a GPU and DRAM) and a server (with PMem
// and DRAM) on a sim fabric, then runs fn inside the engine.
func runSimPair(t *testing.T, materialized bool, fn func(env sim.Env, f *SimFabric, client, server *Node, cgpu, spm *memdev.Device)) time.Duration {
	t.Helper()
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		f := NewSimFabric()
		client := NewNode(env, "client")
		server := NewNode(env, "server")
		f.AddNode(client)
		f.AddNode(server)
		size := int64(256 << 20)
		if materialized {
			size = 1 << 20 // materialized tests touch small regions only
		}
		cgpu := memdev.New("gpu0", memdev.GPU, size, materialized)
		spm := memdev.New("pmem0", memdev.PMEM, size, materialized)
		fn(env, f, client, server, cgpu, spm)
	})
	return eng.Run()
}

func TestOneSidedReadMovesContent(t *testing.T) {
	runSimPair(t, true, func(env sim.Env, f *SimFabric, client, server *Node, cgpu, spm *memdev.Device) {
		cgpu.Write(4096, []byte("tensor-bytes"))
		rmr := client.RegisterMR(env, cgpu, 4096, 12)
		lmr := server.RegisterMR(env, spm, 0, 12)
		err := f.Read(env, server,
			Slice{MR: lmr, Off: 0, Len: 12},
			RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 12}, Off: 0, Len: 12})
		if err != nil {
			t.Fatal(err)
		}
		if got := spm.Bytes(0, 12); !bytes.Equal(got, []byte("tensor-bytes")) {
			t.Fatalf("server pulled %q", got)
		}
	})
}

func TestOneSidedWriteMovesContent(t *testing.T) {
	runSimPair(t, true, func(env sim.Env, f *SimFabric, client, server *Node, cgpu, spm *memdev.Device) {
		spm.Write(128, []byte("restored!"))
		lmr := server.RegisterMR(env, spm, 128, 9)
		rmr := client.RegisterMR(env, cgpu, 0, 9)
		err := f.Write(env, server,
			Slice{MR: lmr, Off: 0, Len: 9},
			RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 9}, Off: 0, Len: 9})
		if err != nil {
			t.Fatal(err)
		}
		if got := cgpu.Bytes(0, 9); !bytes.Equal(got, []byte("restored!")) {
			t.Fatalf("client received %q", got)
		}
	})
}

func TestVirtualStampTravelsOverFabric(t *testing.T) {
	runSimPair(t, false, func(env sim.Env, f *SimFabric, client, server *Node, cgpu, spm *memdev.Device) {
		cgpu.WriteStamp(0, 64<<20, 0x1234)
		rmr := client.RegisterMR(env, cgpu, 0, 64<<20)
		lmr := server.RegisterMR(env, spm, 0, 64<<20)
		err := f.Read(env, server,
			Slice{MR: lmr, Off: 0, Len: 64 << 20},
			RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 64 << 20}, Off: 0, Len: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if got := spm.StampOf(0, 64<<20); got != 0x1234 {
			t.Fatalf("stamp = %#x, want 0x1234", got)
		}
	})
}

func TestGPUReadIsBARCapped(t *testing.T) {
	// Reading 64 MiB from GPU memory must run at ~5.8 GB/s, not NIC rate.
	const size = 64 << 20
	elapsed := runSimPair(t, false, func(env sim.Env, f *SimFabric, client, server *Node, cgpu, spm *memdev.Device) {
		cgpu.WriteStamp(0, size, 1)
		rmr := client.RegisterMR(env, cgpu, 0, size)
		lmr := server.RegisterMR(env, spm, 0, size)
		if err := f.Read(env, server,
			Slice{MR: lmr, Len: size},
			RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: size}, Len: size}); err != nil {
			t.Fatal(err)
		}
	})
	secs := float64(size) / perfmodel.GPUBARReadBW
	ideal := time.Duration(secs * float64(time.Second))
	if elapsed < ideal || elapsed > ideal*115/100 {
		t.Fatalf("BAR-capped read took %v, want within [%v, %v]", elapsed, ideal, ideal*115/100)
	}
}

func TestGPUWriteIsNotBARCapped(t *testing.T) {
	// Writing into GPU memory (restore direction) is NIC-limited
	// (~11.5 GB/s), i.e. roughly 2x faster than the BAR-capped read.
	const size = 64 << 20
	elapsed := runSimPair(t, false, func(env sim.Env, f *SimFabric, client, server *Node, cgpu, spm *memdev.Device) {
		spm.WriteStamp(0, size, 1)
		lmr := server.RegisterMR(env, spm, 0, size)
		rmr := client.RegisterMR(env, cgpu, 0, size)
		if err := f.Write(env, server,
			Slice{MR: lmr, Len: size},
			RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: size}, Len: size}); err != nil {
			t.Fatal(err)
		}
	})
	secs := float64(size) / perfmodel.NICBandwidth
	ideal := time.Duration(secs * float64(time.Second))
	if elapsed < ideal || elapsed > ideal*115/100 {
		t.Fatalf("restore write took %v, want within [%v, %v]", elapsed, ideal, ideal*115/100)
	}
}

func TestConcurrentReadsSharePMemBandwidth(t *testing.T) {
	// 8 concurrent GPU pulls into PMem: per-flow 5.8 GB/s would need
	// 46.4 GB/s aggregate, but PMem sustains 6.2 GB/s — so 8×64 MiB
	// lands in ~(8*64MiB)/6.2GB/s.
	const size = 64 << 20
	eng := sim.NewEngine()
	var last time.Duration
	eng.Go("root", func(env sim.Env) {
		f := NewSimFabric()
		server := NewNode(env, "server")
		f.AddNode(server)
		spm := memdev.New("pmem0", memdev.PMEM, 1<<30, false)
		for i := 0; i < 8; i++ {
			i := i
			client := NewNode(env, nodeName(i))
			f.AddNode(client)
			gpu := memdev.New("gpu", memdev.GPU, size, false)
			gpu.WriteStamp(0, size, uint64(i+1))
			rmr := client.RegisterMR(env, gpu, 0, size)
			lmr := server.RegisterMR(env, spm, int64(i)*size, size)
			env.Go("pull", func(env sim.Env) {
				err := f.Read(env, server,
					Slice{MR: lmr, Len: size},
					RemoteSlice{MR: RemoteMR{Node: client.name, RKey: rmr.RKey, Len: size}, Len: size})
				if err != nil {
					t.Error(err)
				}
				if env.Now() > last {
					last = env.Now()
				}
			})
		}
	})
	eng.Run()
	secs := float64(8*size) / perfmodel.PMemWriteBW
	ideal := time.Duration(secs * float64(time.Second))
	if math.Abs(float64(last-ideal)) > 0.15*float64(ideal) {
		t.Fatalf("8 concurrent pulls finished at %v, want ~%v", last, ideal)
	}
}

func nodeName(i int) string { return string(rune('a'+i)) + "-node" }

func TestReadBadRKeyFails(t *testing.T) {
	runSimPair(t, true, func(env sim.Env, f *SimFabric, client, server *Node, cgpu, spm *memdev.Device) {
		lmr := server.RegisterMR(env, spm, 0, 16)
		err := f.Read(env, server,
			Slice{MR: lmr, Len: 16},
			RemoteSlice{MR: RemoteMR{Node: "client", RKey: 999, Len: 16}, Len: 16})
		if !errors.Is(err, ErrBadRKey) {
			t.Fatalf("err = %v, want ErrBadRKey", err)
		}
	})
}

func TestReadOutOfBoundsFails(t *testing.T) {
	runSimPair(t, true, func(env sim.Env, f *SimFabric, client, server *Node, cgpu, spm *memdev.Device) {
		rmr := client.RegisterMR(env, cgpu, 0, 16)
		lmr := server.RegisterMR(env, spm, 0, 32)
		err := f.Read(env, server,
			Slice{MR: lmr, Len: 32},
			RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 16}, Off: 0, Len: 32})
		if !errors.Is(err, ErrOutOfBounds) {
			t.Fatalf("err = %v, want ErrOutOfBounds", err)
		}
	})
}

func TestDeregisterRevokesAccess(t *testing.T) {
	runSimPair(t, true, func(env sim.Env, f *SimFabric, client, server *Node, cgpu, spm *memdev.Device) {
		rmr := client.RegisterMR(env, cgpu, 0, 16)
		lmr := server.RegisterMR(env, spm, 0, 16)
		client.DeregisterMR(rmr.RKey)
		err := f.Read(env, server,
			Slice{MR: lmr, Len: 16},
			RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 16}, Len: 16})
		if !errors.Is(err, ErrBadRKey) {
			t.Fatalf("err = %v, want ErrBadRKey after deregister", err)
		}
		if client.MRCount() != 0 {
			t.Fatalf("MRCount = %d, want 0", client.MRCount())
		}
	})
}

func TestUnknownPeerFails(t *testing.T) {
	runSimPair(t, true, func(env sim.Env, f *SimFabric, client, server *Node, cgpu, spm *memdev.Device) {
		lmr := server.RegisterMR(env, spm, 0, 16)
		err := f.Read(env, server,
			Slice{MR: lmr, Len: 16},
			RemoteSlice{MR: RemoteMR{Node: "ghost", RKey: 1, Len: 16}, Len: 16})
		if !errors.Is(err, ErrNoRoute) {
			t.Fatalf("err = %v, want ErrNoRoute", err)
		}
	})
}

func TestRateTableOverride(t *testing.T) {
	rt := DefaultRates().WithGPUReadCap(2 * perfmodel.GB)
	if rt.GPU.ReadBW != 2*perfmodel.GB || rt.GPU.ReadFlowCap != 2*perfmodel.GB {
		t.Fatal("WithGPUReadCap did not override both fields")
	}
	if DefaultRates().GPU.ReadBW != perfmodel.GPUBARReadBW {
		t.Fatal("WithGPUReadCap mutated the default table")
	}
}

func TestForKindSelectsRates(t *testing.T) {
	rt := DefaultRates()
	if rt.ForKind(memdev.GPU).ReadBW != perfmodel.GPUBARReadBW {
		t.Error("GPU rates wrong")
	}
	if rt.ForKind(memdev.PMEM).WriteBW != perfmodel.PMemWriteBW {
		t.Error("PMEM rates wrong")
	}
	if rt.ForKind(memdev.DRAM).ReadFlowCap != perfmodel.DRAMRemoteReadBW {
		t.Error("DRAM rates wrong")
	}
	if rt.ForKind(memdev.NVMe).ReadBW != perfmodel.NVMeReadBW {
		t.Error("NVMe rates wrong")
	}
}

func TestPipeChunkBounds(t *testing.T) {
	if c := pipeChunk(1 << 10); c != 64*perfmodel.KiB {
		t.Errorf("small chunk = %d", c)
	}
	if c := pipeChunk(1 << 40); c != 8*perfmodel.MiB {
		t.Errorf("large chunk = %d", c)
	}
	if c := pipeChunk(640 * perfmodel.MiB); c != 10*perfmodel.MiB || c == 0 {
		// 640MiB/64 = 10MiB > 8MiB cap
		if c != 8*perfmodel.MiB {
			t.Errorf("mid chunk = %d", c)
		}
	}
}
