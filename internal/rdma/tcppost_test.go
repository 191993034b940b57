package rdma

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// outcome is what a posted list reported for one op.
type outcome struct {
	i   int
	err error
}

// postAll runs ops as one list and returns the completions in the order
// they were reported.
func postAll(env sim.Env, p Poster, local *Node, write bool, ops []Op) []outcome {
	var got []outcome
	p.PostList(env, local, write, ops, func(i int, err error) { got = append(got, outcome{i, err}) })
	return got
}

// checkOrder fails unless every op was reported exactly once, in list
// order.
func checkOrder(t *testing.T, got []outcome, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("%d completions for %d ops", len(got), n)
	}
	for k, o := range got {
		if o.i != k {
			t.Fatalf("completion %d reports op %d, want list order", k, o.i)
		}
	}
}

// TestPostListRefusedOpMidList: in a READ list and in a WRITE list, one
// op aimed at a bad rkey (refused by the agent), one whose local and
// remote lengths differ and one bound for another peer (both refused
// here, never sent) fail alone. Every other op lands byte-identical,
// and the connection stays cached.
func TestPostListRefusedOpMidList(t *testing.T) {
	env, f, client, server := newTCPPair(t)
	const n, size = 7, 5 << 10
	cgpu := memdev.New("gpu0", memdev.GPU, n*size, true)
	spm := memdev.New("pmem0", memdev.PMEM, n*size, true)
	for i := 0; i < n; i++ {
		cgpu.Write(int64(i)*size, bytes.Repeat([]byte{byte(i + 1)}, size))
	}
	rmr := client.RegisterMR(env, cgpu, 0, n*size)
	lmr := server.RegisterMR(env, spm, 0, n*size)
	ops := make([]Op, n)
	for i := range ops {
		off := int64(i) * size
		ops[i] = Op{L: Slice{MR: lmr, Off: off, Len: size}, R: RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: n * size}, Off: off, Len: size}}
	}
	ops[2].R.MR.RKey = 999  // refused by the agent
	ops[4].L.Len = size - 1 // refused before it is sent
	ops[5].R.MR.Node = "other"

	if err := f.Read(env, server, ops[0].L, ops[0].R); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	first := f.conns["client"]
	f.mu.Unlock()

	for _, write := range []bool{false, true} {
		if write { // push what the READ list pulled back to a cleared GPU
			cgpu.Write(0, make([]byte, n*size))
		}
		got := postAll(env, f, server, write, ops)
		checkOrder(t, got, n)
		for _, o := range got {
			switch o.i {
			case 2:
				if o.err == nil || !strings.Contains(o.err.Error(), "unknown remote key") {
					t.Errorf("write=%v: op 2 err = %v, want the agent's bad-rkey refusal", write, o.err)
				}
			case 4:
				if o.err == nil || !strings.Contains(o.err.Error(), "length mismatch") {
					t.Errorf("write=%v: op 4 err = %v, want the local length refusal", write, o.err)
				}
			case 5:
				if o.err == nil || !strings.Contains(o.err.Error(), "targets client, not other") {
					t.Errorf("write=%v: op 5 err = %v, want the other-peer refusal", write, o.err)
				}
			default:
				if o.err != nil {
					t.Errorf("write=%v: op %d: %v", write, o.i, o.err)
				}
			}
		}
		dst := spm
		if write {
			dst = cgpu
		}
		for i := 0; i < n; i++ {
			want := bytes.Repeat([]byte{byte(i + 1)}, size)
			if i == 2 || i == 4 || i == 5 { // refused: never written
				want = make([]byte, size)
			}
			if !bytes.Equal(dst.Bytes(int64(i)*size, size), want) {
				t.Errorf("write=%v: op %d's region is not what it should be", write, i)
			}
		}
		f.mu.Lock()
		kept := f.conns["client"]
		f.mu.Unlock()
		if kept != first {
			t.Fatalf("write=%v: a refusal in the list evicted the cached connection", write)
		}
	}
}

// TestPostListPeerClosesAfterK: a hand-spoken agent answers the first k
// ops of a list and stops. Exactly ops k.. fail, with the transport
// error of the half that broke first, and the connection is evicted.
// In one case the agent reads the whole READ list and closes; in the
// other it half-closes before reading any of a WRITE list too large to
// sit in the socket buffers, so the reader meets the end of the stream
// while the writer is still sending, and the cause reported is that
// end, not the writer's failure on the connection the reader closed.
func TestPostListPeerClosesAfterK(t *testing.T) {
	const n, k = 8, 3
	for _, tc := range []struct {
		name  string
		write bool
		size  int64
	}{
		{"agent reads the list, then closes", false, 1 << 10},
		{"agent half-closes before reading the list", true, 4 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewRealEnv()
			f := NewTCPFabric(env)
			t.Cleanup(f.Close)
			server := NewNode(env, "server")
			size := tc.size
			spm := memdev.New("pmem0", memdev.PMEM, n*size, true)
			lmr := server.RegisterMR(env, spm, 0, n*size)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			f.AddPeer("peer", ln.Addr().String())
			body := bytes.Repeat([]byte{0xA5}, int(size))
			release := make(chan struct{})
			defer close(release)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				if tc.write {
					for i := 0; i < k; i++ {
						c.Write(append(lenPrefix(1), 0))
					}
					c.(*net.TCPConn).CloseWrite()
					<-release // never reads: the requester's writer stays blocked
					return
				}
				// Read every request before closing, so the close is an
				// orderly end of stream rather than a reset that could
				// discard replies.
				if _, err := io.ReadFull(c, make([]byte, n*(4+1+oneSided))); err != nil {
					return
				}
				for i := 0; i < k; i++ {
					c.Write(append(append(lenPrefix(2+uint32(size)), 0, payloadBytes), body...))
				}
			}()
			ops := make([]Op, n)
			for i := range ops {
				ops[i] = Op{L: Slice{MR: lmr, Off: int64(i) * size, Len: size}, R: RemoteSlice{MR: RemoteMR{Node: "peer", RKey: 1, Len: n * size}, Off: int64(i) * size, Len: size}}
			}
			got := postAll(env, f, server, tc.write, ops)
			checkOrder(t, got, n)
			for _, o := range got {
				if failed := o.err != nil; failed != (o.i >= k) {
					t.Errorf("op %d: err = %v, want failure exactly from op %d on", o.i, o.err, k)
				}
				if o.err != nil && errors.Is(o.err, net.ErrClosed) {
					t.Errorf("op %d: err = %v, want the cause, not the failure it caused", o.i, o.err)
				}
			}
			if !tc.write && !bytes.Equal(spm.Bytes(0, k*size), bytes.Repeat(body, k)) {
				t.Error("the answered ops did not land")
			}
			f.mu.Lock()
			_, cached := f.conns["peer"]
			f.mu.Unlock()
			if cached {
				t.Fatal("a transport error left the connection cached")
			}
		})
	}
}

// pipePair connects server's fabric to an agent serving client over
// net.Pipe, which buffers nothing: every write waits for the matching
// read.
func pipePair(t *testing.T) (env sim.Env, f *TCPFabric, client, server *Node) {
	t.Helper()
	renv := sim.NewRealEnv()
	f = NewTCPFabric(renv)
	t.Cleanup(f.Close)
	client, server = NewNode(renv, "client"), NewNode(renv, "server")
	near, far := net.Pipe()
	go f.serveConn(client, far)
	f.mu.Lock()
	f.peers["client"] = "pipe"
	f.conns["client"] = &agentConn{peerConn: newPeerConn(near)}
	f.mu.Unlock()
	return renv, f, client, server
}

// TestPostListZeroBuffering: with no socket buffering at all, a
// 1000-op READ list and a WRITE list whose every op is refused both
// finish. Neither side may wait for the other while it holds unsent
// bytes: the requester writes and reads on separate goroutines, and the
// agent's deferred flush never waits on a request that is not on its
// way.
func TestPostListZeroBuffering(t *testing.T) {
	env, f, client, server := pipePair(t)
	const n, size = 1000, 1 << 10
	cgpu := memdev.New("gpu0", memdev.GPU, n*size, true)
	for i := 0; i < n; i++ {
		cgpu.Write(int64(i)*size, bytes.Repeat([]byte{byte(i)}, size))
	}
	spm := memdev.New("pmem0", memdev.PMEM, n*size, true)
	rmr := client.RegisterMR(env, cgpu, 0, n*size)
	lmr := server.RegisterMR(env, spm, 0, n*size)
	ops := make([]Op, n)
	for i := range ops {
		off := int64(i) * size
		ops[i] = Op{L: Slice{MR: lmr, Off: off, Len: size}, R: RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: n * size}, Off: off, Len: size}}
	}
	refused := make([]Op, 200)
	for i := range refused {
		refused[i] = ops[i]
		refused[i].R.MR.RKey = 999
	}
	for _, tc := range []struct {
		name  string
		write bool
		ops   []Op
		fails bool
	}{
		{"1000-op READ list", false, ops, false},
		{"WRITE list, every op refused", true, refused, true},
	} {
		finished := make(chan []outcome, 1)
		go func() { finished <- postAll(env, f, server, tc.write, tc.ops) }()
		select {
		case got := <-finished:
			checkOrder(t, got, len(tc.ops))
			for _, o := range got {
				if (o.err != nil) != tc.fails {
					t.Fatalf("%s: op %d: err = %v", tc.name, o.i, o.err)
				}
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: the list deadlocked over an unbuffered connection", tc.name)
		}
	}
	if !bytes.Equal(spm.Bytes(0, n*size), cgpu.Bytes(0, n*size)) {
		t.Fatal("the READ list's bytes differ from the source")
	}
}

// TestPosterOf: list posting is a capability of the TCP fabric, kept by
// an instrumented wrapper around it, and absent from the simulated
// fabric however it is wrapped. The instrumented list counts every op.
func TestPosterOf(t *testing.T) {
	reg := telemetry.NewRegistry()
	if p := PosterOf(Instrument("sim", NewSimFabric(), reg)); p != nil {
		t.Fatal("an instrumented SimFabric claims to post lists")
	}
	env, f, client, server := newTCPPair(t)
	inst := Instrument("tcp", f, reg)
	p := PosterOf(inst)
	if p == nil {
		t.Fatal("an instrumented TCPFabric cannot post lists")
	}
	cgpu := memdev.New("gpu0", memdev.GPU, 4<<10, true)
	spm := memdev.New("pmem0", memdev.PMEM, 4<<10, true)
	rmr := client.RegisterMR(env, cgpu, 0, 4<<10)
	lmr := server.RegisterMR(env, spm, 0, 4<<10)
	ops := []Op{
		{L: Slice{MR: lmr, Len: 1 << 10}, R: RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 4 << 10}, Len: 1 << 10}},
		{L: Slice{MR: lmr, Off: 1 << 10, Len: 1 << 10}, R: RemoteSlice{MR: RemoteMR{Node: "client", RKey: 999, Len: 4 << 10}, Len: 1 << 10}},
		{L: Slice{MR: lmr, Off: 2 << 10, Len: 2 << 10}, R: RemoteSlice{MR: RemoteMR{Node: "client", RKey: rmr.RKey, Len: 4 << 10}, Off: 2 << 10, Len: 2 << 10}},
	}
	checkOrder(t, postAll(env, p, server, false, ops), len(ops))
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	for _, want := range []string{
		`portus_rdma_op_seconds_count{fabric="tcp",op="read"} 2`,
		fmt.Sprintf(`portus_rdma_bytes_total{fabric="tcp",op="read"} %d`, 3<<10),
		`portus_rdma_errors_total{fabric="tcp"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
