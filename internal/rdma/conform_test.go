package rdma_test

import (
	"bytes"
	"errors"
	"testing"

	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/rdma"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// conformRig is one fabric under test: the server node posts lists
// against the client node's memory.
type conformRig struct {
	env            sim.Env
	fab            rdma.Fabric
	client, server *rdma.Node
	// unreachable makes the client unreachable from the server and
	// returns the node name a list must target to find it so.
	unreachable func() string
}

// simRig runs fn on a SimFabric, wrapped by wrap, inside the engine.
func simRig(wrap func(rdma.Fabric) rdma.Fabric) func(t *testing.T, fn func(*conformRig)) {
	return func(t *testing.T, fn func(*conformRig)) {
		eng := sim.NewEngine()
		eng.Go("test", func(env sim.Env) {
			f := rdma.NewSimFabric()
			client, server := rdma.NewNode(env, "client"), rdma.NewNode(env, "server")
			f.AddNode(client)
			f.AddNode(server)
			cut := func() string { f.CutNode("client"); return "client" }
			fn(&conformRig{env: env, fab: wrap(f), client: client, server: server, unreachable: cut})
		})
		eng.Run()
	}
}

// tcpRig runs fn on a TCPFabric serving the client on loopback. A node
// the fabric has no agent address for is its unreachable peer.
func tcpRig(t *testing.T, fn func(*conformRig)) {
	env := sim.NewRealEnv()
	f := rdma.NewTCPFabric(env)
	t.Cleanup(f.Close)
	client, server := rdma.NewNode(env, "client"), rdma.NewNode(env, "server")
	if _, err := f.Serve(client, ""); err != nil {
		t.Fatal(err)
	}
	fn(&conformRig{env: env, fab: f, client: client, server: server, unreachable: func() string { return "ghost" }})
}

var conformFabrics = []struct {
	name string
	run  func(t *testing.T, fn func(*conformRig))
}{
	{"sim", simRig(func(f rdma.Fabric) rdma.Fabric { return f })},
	{"tcp", tcpRig},
	{"instrumented sim", simRig(func(f rdma.Fabric) rdma.Fabric {
		return rdma.Instrument("sim", f, telemetry.NewRegistry())
	})},
	{"faults(sim) at rate 0", simRig(func(f rdma.Fabric) rdma.Fabric {
		return faults.NewInjector(faults.Config{}).Fabric(f)
	})},
}

const (
	conformOps = 6
	conformLen = 1 << 10 // bytes per op
)

// conformMem is the memory a check posts against: the client's GPU
// region, registered writable and read-only, and the server's PMem.
type conformMem struct {
	gpu, pm *memdev.Device
	rw, ro  rdma.MR
	local   rdma.MR
}

func (r *conformRig) mem() *conformMem {
	const size = conformOps * conformLen
	m := &conformMem{
		gpu: memdev.New("gpu0", memdev.GPU, size, true),
		pm:  memdev.New("pmem0", memdev.PMEM, size, true),
	}
	for i := 0; i < conformOps; i++ {
		m.gpu.Write(int64(i*conformLen), bytes.Repeat([]byte{byte(i + 1)}, conformLen))
	}
	m.rw = r.client.RegisterMR(r.env, m.gpu, 0, size)
	m.ro = r.client.RegisterReadOnly(r.env, m.gpu, 0, size)
	m.local = r.server.RegisterMR(r.env, m.pm, 0, size)
	return m
}

// ops is one op per conformLen-byte range, between the same range of
// the server's PMem and of the remote region mr on node.
func (m *conformMem) ops(node string, mr rdma.MR) []rdma.Op {
	ops := make([]rdma.Op, conformOps)
	for i := range ops {
		off := int64(i * conformLen)
		ops[i] = rdma.Op{
			L: rdma.Slice{MR: m.local, Off: off, Len: conformLen},
			R: rdma.RemoteSlice{MR: rdma.RemoteMR{Node: node, RKey: mr.RKey, Len: mr.Len}, Off: off, Len: conformLen},
		}
	}
	return ops
}

// post runs ops as one list and returns each op's error, failing the
// test unless every op completed exactly once, in list order.
func (r *conformRig) post(t *testing.T, write bool, ops []rdma.Op) []error {
	t.Helper()
	errs := make([]error, 0, len(ops))
	r.fab.PostList(r.env, r.server, write, ops, func(i int, err error) {
		if i != len(errs) {
			t.Errorf("completion %d reports op %d, want list order", len(errs), i)
		}
		errs = append(errs, err)
	})
	if len(errs) != len(ops) {
		t.Fatalf("%d completions for %d ops", len(errs), len(ops))
	}
	return errs
}

// sameRange reports whether op i's range holds the same bytes on both
// devices.
func sameRange(a, b *memdev.Device, i int) bool {
	off := int64(i * conformLen)
	return bytes.Equal(a.Bytes(off, conformLen), b.Bytes(off, conformLen))
}

// TestPostListConformance holds every fabric and wrapper to one
// PostList contract: each op completes exactly once, in list order; a
// bad rkey, an out-of-bounds op or a WRITE to a read-only region fails
// alone while the rest of the list lands; an unreachable peer fails
// every op with ErrNoRoute; and the bytes of every landed op arrive.
func TestPostListConformance(t *testing.T) {
	for _, fc := range conformFabrics {
		t.Run(fc.name+"/bytes land in order", func(t *testing.T) {
			fc.run(t, func(r *conformRig) {
				m := r.mem()
				for i, err := range r.post(t, false, m.ops("client", m.rw)) {
					if err != nil {
						t.Fatalf("READ op %d: %v", i, err)
					}
				}
				if !bytes.Equal(m.pm.Bytes(0, m.pm.Size()), m.gpu.Bytes(0, m.gpu.Size())) {
					t.Fatal("the READ list's bytes differ from the source")
				}
				m.gpu.Write(0, make([]byte, m.gpu.Size()))
				for i, err := range r.post(t, true, m.ops("client", m.rw)) {
					if err != nil {
						t.Fatalf("WRITE op %d: %v", i, err)
					}
				}
				if !bytes.Equal(m.gpu.Bytes(0, m.gpu.Size()), m.pm.Bytes(0, m.pm.Size())) {
					t.Fatal("the WRITE list's bytes differ from the source")
				}
			})
		})
		t.Run(fc.name+"/a bad op fails alone", func(t *testing.T) {
			fc.run(t, func(r *conformRig) {
				m := r.mem()
				for _, write := range []bool{false, true} {
					ops := m.ops("client", m.rw)
					ops[1].R.MR.RKey = 999
					ops[3].R.Off = m.rw.Len - conformLen/2
					bad := map[int]bool{1: true, 3: true}
					if write {
						ops[4].R.MR = rdma.RemoteMR{Node: "client", RKey: m.ro.RKey, Len: m.ro.Len}
						bad[4] = true
						m.gpu.Write(0, make([]byte, m.gpu.Size()))
					}
					dst, src := m.pm, m.gpu
					if write {
						dst, src = m.gpu, m.pm
					}
					for i, err := range r.post(t, write, ops) {
						if bad[i] != (err != nil) {
							t.Fatalf("write=%v: op %d: err = %v", write, i, err)
						}
						if !bad[i] && !sameRange(dst, src, i) {
							t.Fatalf("write=%v: op %d landed different bytes", write, i)
						}
					}
					if write && !bytes.Equal(m.gpu.Bytes(4*conformLen, conformLen), make([]byte, conformLen)) {
						t.Fatal("a WRITE reached a read-only region")
					}
				}
			})
		})
		t.Run(fc.name+"/an unreachable peer fails every op", func(t *testing.T) {
			fc.run(t, func(r *conformRig) {
				m := r.mem()
				node := r.unreachable()
				for _, write := range []bool{false, true} {
					for i, err := range r.post(t, write, m.ops(node, m.rw)) {
						if !errors.Is(err, rdma.ErrNoRoute) {
							t.Fatalf("write=%v: op %d: err = %v, want ErrNoRoute", write, i, err)
						}
					}
				}
			})
		})
	}
}
