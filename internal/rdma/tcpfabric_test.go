package rdma

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/sim"
)

// newTCPPair serves two nodes over loopback agents and wires their peer
// tables together.
func newTCPPair(t *testing.T) (env sim.Env, f *TCPFabric, client, server *Node) {
	t.Helper()
	renv := sim.NewRealEnv()
	f = NewTCPFabric(renv)
	client = NewNode(renv, "client")
	server = NewNode(renv, "server")
	for _, n := range []*Node{client, server} {
		if _, err := f.Serve(n, ""); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(f.Close)
	return renv, f, client, server
}

func TestTCPReadMaterialized(t *testing.T) {
	env, f, client, server := newTCPPair(t)
	cgpu := memdev.New("gpu0", memdev.GPU, 1<<20, true)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	cgpu.Write(100, []byte("weights"))
	rmr := client.RegisterMR(env, cgpu, 100, 7)
	lmr := server.RegisterMR(env, spm, 0, 7)

	err := f.Read(env, server,
		Slice{MR: lmr, Len: 7},
		RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 7}, Len: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := spm.Bytes(0, 7); !bytes.Equal(got, []byte("weights")) {
		t.Fatalf("pulled %q over TCP", got)
	}
}

func TestTCPWriteMaterialized(t *testing.T) {
	env, f, client, server := newTCPPair(t)
	cgpu := memdev.New("gpu0", memdev.GPU, 1<<20, true)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	spm.Write(0, []byte("checkpoint"))
	lmr := server.RegisterMR(env, spm, 0, 10)
	rmr := client.RegisterMR(env, cgpu, 0, 10)

	err := f.Write(env, server,
		Slice{MR: lmr, Len: 10},
		RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 10}, Len: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := cgpu.Bytes(0, 10); !bytes.Equal(got, []byte("checkpoint")) {
		t.Fatalf("restored %q over TCP", got)
	}
}

func TestTCPVirtualStamps(t *testing.T) {
	env, f, client, server := newTCPPair(t)
	cgpu := memdev.New("gpu0", memdev.GPU, 1<<40, false)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<40, false)
	cgpu.WriteStamp(0, 1<<30, 77)
	rmr := client.RegisterMR(env, cgpu, 0, 1<<30)
	lmr := server.RegisterMR(env, spm, 0, 1<<30)

	err := f.Read(env, server,
		Slice{MR: lmr, Len: 1 << 30},
		RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 1 << 30}, Len: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := spm.StampOf(0, 1<<30); got != 77 {
		t.Fatalf("virtual stamp over TCP = %d, want 77", got)
	}
}

func TestTCPBadRKeyReportsRemoteError(t *testing.T) {
	env, f, _, server := newTCPPair(t)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	lmr := server.RegisterMR(env, spm, 0, 8)
	err := f.Read(env, server,
		Slice{MR: lmr, Len: 8},
		RemoteSlice{MR: RemoteMR{Node: "client", RKey: 42, Len: 8}, Len: 8})
	if err == nil || !strings.Contains(err.Error(), "unknown remote key") {
		t.Fatalf("err = %v, want remote rkey error", err)
	}
}

func TestTCPConcurrentOneSidedOps(t *testing.T) {
	env, f, client, server := newTCPPair(t)
	cgpu := memdev.New("gpu0", memdev.GPU, 1<<20, true)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	const n = 16
	rmrs := make([]MR, n)
	lmrs := make([]MR, n)
	for i := 0; i < n; i++ {
		cgpu.Write(int64(i)*64, []byte{byte(i + 1)})
		rmrs[i] = client.RegisterMR(env, cgpu, int64(i)*64, 1)
		lmrs[i] = server.RegisterMR(env, spm, int64(i)*64, 1)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := f.Read(env, server,
				Slice{MR: lmrs[i], Len: 1},
				RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmrs[i].RKey, Len: 1}, Len: 1})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got := spm.Bytes(int64(i)*64, 1)[0]; got != byte(i+1) {
			t.Fatalf("slot %d = %d, want %d", i, got, i+1)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	env, f, _, server := newTCPPair(t)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	lmr := server.RegisterMR(env, spm, 0, 8)
	err := f.Read(env, server,
		Slice{MR: lmr, Len: 8},
		RemoteSlice{MR: RemoteMR{Node: "nowhere", RKey: 1, Len: 8}, Len: 8})
	if err == nil {
		t.Fatal("read to unknown peer succeeded")
	}
}

// TestTCPPeerRestartEvictsCachedConn is the client-restart recovery
// path: a peer that goes away and comes back under the same name must
// be reachable again — immediately when AddPeer names its new address,
// and after one failed verb when it came back on the old address.
func TestTCPPeerRestartEvictsCachedConn(t *testing.T) {
	env := sim.NewRealEnv()
	srv := NewTCPFabric(env)
	t.Cleanup(srv.Close)
	server := NewNode(env, "server")
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	lmr := server.RegisterMR(env, spm, 0, 7)

	// startClient is one incarnation of node "client" holding content.
	startClient := func(addr, content string) (*TCPFabric, string, RemoteSlice) {
		t.Helper()
		f := NewTCPFabric(env)
		n := NewNode(env, "client")
		bound, err := f.Serve(n, addr)
		if err != nil {
			t.Fatal(err)
		}
		gpu := memdev.New("gpu0", memdev.GPU, 1<<20, true)
		gpu.Write(0, []byte(content))
		mr := n.RegisterMR(env, gpu, 0, 7)
		return f, bound, RemoteSlice{MR: RemoteMR{Node: "client", RKey: mr.RKey, Len: 7}, Len: 7}
	}
	pull := func(r RemoteSlice) (string, error) {
		err := srv.Read(env, server, Slice{MR: lmr, Len: 7}, r)
		return string(spm.Bytes(0, 7)), err
	}

	c1, addr1, r1 := startClient("", "first--")
	srv.AddPeer("client", addr1)
	if got, err := pull(r1); err != nil || got != "first--" {
		t.Fatalf("first incarnation: %q, %v", got, err)
	}
	c1.Close()

	// New address: AddPeer alone must re-route the very next verb.
	c2, addr2, r2 := startClient("", "second-")
	srv.AddPeer("client", addr2)
	if got, err := pull(r2); err != nil || got != "second-" {
		t.Fatalf("after restart on a new address: %q, %v", got, err)
	}
	c2.Close()

	// Same address: the stale connection fails once, then is redialed.
	c3, _, r3 := startClient(addr2, "third--")
	t.Cleanup(c3.Close)
	srv.AddPeer("client", addr2)
	if _, err := pull(r3); err == nil {
		t.Fatal("verb on the dead incarnation's connection succeeded")
	}
	if got, err := pull(r3); err != nil || got != "third--" {
		t.Fatalf("after restart on the same address: %q, %v", got, err)
	}
}
