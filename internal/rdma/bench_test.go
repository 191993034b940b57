package rdma

import (
	"testing"

	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/sim"
)

// BenchmarkSimFabricRead measures simulated one-sided READ dispatch
// cost (the per-tensor overhead of a checkpoint pull), 4 MiB virtual
// payloads.
func BenchmarkSimFabricRead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		eng.Go("bench", func(env sim.Env) {
			f := NewSimFabric()
			server := NewNode(env, "server")
			client := NewNode(env, "client")
			f.AddNode(server)
			f.AddNode(client)
			gpu := memdev.New("gpu", memdev.GPU, 1<<30, false)
			pm := memdev.New("pm", memdev.PMEM, 1<<30, false)
			gpu.WriteStamp(0, 4<<20, 1)
			rmr := client.RegisterMR(env, gpu, 0, 4<<20)
			lmr := server.RegisterMR(env, pm, 0, 4<<20)
			for j := 0; j < 64; j++ {
				err := f.Read(env, server,
					Slice{MR: lmr, Len: 4 << 20},
					RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 4 << 20}, Len: 4 << 20})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		eng.Run()
	}
}

// BenchmarkTCPFabricRead measures real soft-RDMA read latency over
// loopback with 64 KiB materialized payloads.
func BenchmarkTCPFabricRead(b *testing.B) {
	env := sim.NewRealEnv()
	f := NewTCPFabric(env)
	defer f.Close()
	server := NewNode(env, "server")
	client := NewNode(env, "client")
	if _, err := f.Serve(server, ""); err != nil {
		b.Fatal(err)
	}
	if _, err := f.Serve(client, ""); err != nil {
		b.Fatal(err)
	}
	gpu := memdev.New("gpu", memdev.GPU, 1<<20, true)
	pm := memdev.New("pm", memdev.PMEM, 1<<20, true)
	rmr := client.RegisterMR(env, gpu, 0, 64<<10)
	lmr := server.RegisterMR(env, pm, 0, 64<<10)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := f.Read(env, server,
			Slice{MR: lmr, Len: 64 << 10},
			RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 64 << 10}, Len: 64 << 10})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegisterMR measures registration throughput.
func BenchmarkRegisterMR(b *testing.B) {
	env := sim.NewRealEnv()
	n := NewNode(env, "client")
	dev := memdev.New("gpu", memdev.GPU, 1<<40, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.RegisterMR(env, dev, int64(i)%(1<<30), 4096)
	}
}

// BenchmarkTCPFabricReadList measures a small-tensor pull over loopback:
// 292 reads of 5 KiB each (a tcp-small model's shape), posted as one
// list against issued one Read at a time. One op of the benchmark is
// the whole 292-read pull.
func BenchmarkTCPFabricReadList(b *testing.B) {
	const n, size = 292, 5 << 10
	env := sim.NewRealEnv()
	f := NewTCPFabric(env)
	defer f.Close()
	server := NewNode(env, "server")
	client := NewNode(env, "client")
	for _, node := range []*Node{server, client} {
		if _, err := f.Serve(node, ""); err != nil {
			b.Fatal(err)
		}
	}
	gpu := memdev.New("gpu", memdev.GPU, n*size, true)
	pm := memdev.New("pm", memdev.PMEM, n*size, true)
	rmr := RemoteMR{Node: "client", RKey: client.RegisterMR(env, gpu, 0, n*size).RKey, Len: n * size}
	lmr := server.RegisterMR(env, pm, 0, n*size)
	ops := make([]Op, n)
	for i := range ops {
		off := int64(i) * size
		ops[i] = Op{L: Slice{MR: lmr, Off: off, Len: size}, R: RemoteSlice{MR: rmr, Off: off, Len: size}}
	}
	b.Run("posted", func(b *testing.B) {
		b.SetBytes(n * size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.PostList(env, server, false, ops, func(_ int, err error) {
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	})
	b.Run("single", func(b *testing.B) {
		b.SetBytes(n * size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, o := range ops {
				if err := f.Read(env, server, o.L, o.R); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
