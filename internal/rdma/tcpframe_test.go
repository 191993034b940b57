package rdma

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/sim"
)

// Frame builders for the hostile-frame table: what a peer can put on the
// wire with no regard for what the agent expects.
func frame(body ...[]byte) []byte {
	b := bytes.Join(body, nil)
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(b))), b...)
}

func verb(op byte, rkey uint64, off, n int64) []byte {
	b := []byte{op}
	b = binary.LittleEndian.AppendUint64(b, rkey)
	b = binary.LittleEndian.AppendUint64(b, uint64(off))
	return binary.LittleEndian.AppendUint64(b, uint64(n))
}

// sendFrameOp is the op byte of a two-sided SEND, a verb the agent does
// not serve.
const sendFrameOp = 3

func rawBytes(n int) []byte     { return append([]byte{payloadBytes}, bytes.Repeat([]byte{0xEE}, n)...) }
func stamp(s uint64) []byte     { return binary.LittleEndian.AppendUint64([]byte{payloadStamp}, s) }
func lenPrefix(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }

// target is what the hostile frames are aimed at: a materialized MR in
// the middle of a device whose every other byte is a canary, and a
// virtual MR.
type target struct {
	node         *Node
	mat, virt    *memdev.Device
	matMR, virMR MR
}

const (
	targetBase = 8192 // MR offset within the materialized device
	targetLen  = 8192
	canary     = 0xC5
)

func newTarget(env sim.Env) *target {
	tg := &target{
		node: NewNode(env, "server"),
		mat:  memdev.New("pm", memdev.PMEM, 3*targetLen, true),
		virt: memdev.New("vpm", memdev.PMEM, 1<<30, false),
	}
	tg.mat.Write(0, bytes.Repeat([]byte{canary}, 3*targetLen))
	tg.mat.Write(targetBase, bytes.Repeat([]byte("portus!!"), targetLen/8))
	tg.matMR = tg.node.RegisterMR(env, tg.mat, targetBase, targetLen)
	tg.virMR = tg.node.RegisterMR(env, tg.virt, 0, 1<<20)
	return tg
}

// checkCanaries fails if any byte outside the materialized MR changed.
func (tg *target) checkCanaries(t testing.TB) {
	t.Helper()
	want := bytes.Repeat([]byte{canary}, targetLen)
	if !bytes.Equal(tg.mat.Bytes(0, targetBase), want) || !bytes.Equal(tg.mat.Bytes(targetBase+targetLen, targetLen), want) {
		t.Fatal("the agent wrote outside the memory region")
	}
}

// hostileCase is the bytes a peer sends and whether the agent must hang
// up (closed) or stay in sync.
type hostileCase struct {
	name   string
	wire   []byte
	closed bool
}

func hostileFrames(tg *target) []hostileCase {
	mat, vir := tg.matMR.RKey, tg.virMR.RKey
	return []hostileCase{
		{"empty frame", frame(), false},
		{"op byte alone", frame([]byte{opRead}), false},
		{"short read header", frame(verb(opRead, mat, 0, 8)[:20]), false},
		{"short write header", frame(verb(opWrite, mat, 0, 8)[:11]), false},
		{"read with trailing bytes", frame(verb(opRead, mat, 0, 8), []byte("junk")), false},
		{"write without a payload", frame(verb(opWrite, mat, 0, 8)), false},
		{"write body shorter than declared", frame(verb(opWrite, mat, 0, 64), rawBytes(10)), false},
		{"write body longer than declared", frame(verb(opWrite, mat, 0, 64), rawBytes(6000)), false},
		{"raw bytes aimed at a virtual device", frame(verb(opWrite, vir, 0, 64), rawBytes(64)), false},
		{"stamp aimed at a materialized device", frame(verb(opWrite, mat, 0, 64), stamp(7)), false},
		{"stamp of the wrong width", frame(verb(opWrite, vir, 0, 64), stamp(7)[:5]), false},
		{"unknown payload mode", frame(verb(opWrite, mat, 0, 4), []byte{9, 1, 2, 3, 4}), false},
		{"bad rkey found after the body started", frame(verb(opWrite, 0xdead, 0, 6000), rawBytes(6000)), false},
		{"offset past the region, body following", frame(verb(opWrite, mat, targetLen-10, 100), rawBytes(100)), false},
		{"length past the region, body following", frame(verb(opWrite, mat, 0, targetLen+1), rawBytes(targetLen+1)), false},
		{"negative offset", frame(verb(opWrite, mat, -8, 8), rawBytes(8)), false},
		{"negative length", frame(verb(opRead, mat, 0, -1)), false},
		{"offset + length overflows", frame(verb(opWrite, mat, 1<<62, 1<<62), rawBytes(16)), false},
		{"unknown op with a body", frame([]byte{77}, bytes.Repeat([]byte{1}, 5000)), false},
		{"short send", frame([]byte{sendFrameOp, 200, 0, 'q'}), false},
		{"send with a 64 KiB message", frame([]byte{sendFrameOp}, binary.LittleEndian.AppendUint16(nil, 4), []byte("ctrl"),
			binary.LittleEndian.AppendUint64(nil, 64<<10), bytes.Repeat([]byte{0xAB}, 64<<10)), false},
		{"frame longer than 1 GiB", lenPrefix(1<<30 + 1), true},
		{"frame of 4 GiB", lenPrefix(0xffffffff), true},
	}
}

// readReply reads one reply frame off a raw connection.
func readReply(r io.Reader) (status byte, body []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	body = make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, body); err != nil || len(body) == 0 {
		return 0, nil, errors.Join(err, errors.New("empty or torn reply"))
	}
	return body[0], body[1:], nil
}

// TestAgentSurvivesHostileFrames: whatever a peer sends, the agent never
// panics, never writes outside the MR, and the connection is either
// closed or still in sync — the next well-formed verb on it succeeds.
func TestAgentSurvivesHostileFrames(t *testing.T) {
	env := sim.NewRealEnv()
	f := NewTCPFabric(env)
	t.Cleanup(f.Close)
	tg := newTarget(env)
	addr, err := f.Serve(tg.node, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range hostileFrames(tg) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := c.Write(tc.wire); err != nil {
				t.Fatal(err)
			}
			status, body, err := readReply(c)
			if tc.closed {
				if err == nil {
					t.Fatalf("agent answered (status %d, %q), want the connection closed", status, body)
				}
				tg.checkCanaries(t)
				return
			}
			if err != nil || status != 1 {
				t.Fatalf("reply = status %d, %q, %v; want a refusal", status, body, err)
			}
			// In sync: a well-formed READ of the region follows on the same
			// connection, and the refused frame changed nothing inside it.
			if _, err := c.Write(frame(verb(opRead, tg.matMR.RKey, 0, targetLen))); err != nil {
				t.Fatal(err)
			}
			status, body, err = readReply(c)
			want := append([]byte{payloadBytes}, bytes.Repeat([]byte("portus!!"), targetLen/8)...)
			if err != nil || status != 0 || !bytes.Equal(body, want) {
				t.Fatalf("verb after the refusal: status %d, %d-byte body, %v; the stream lost sync or the region changed", status, len(body), err)
			}
			tg.checkCanaries(t)
		})
	}

	// A body cut off mid-stream ends the connection; the bytes that did
	// arrive landed inside the region and nowhere else.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(frame(verb(opWrite, tg.matMR.RKey, 0, targetLen), rawBytes(targetLen))[:4+25+1+100])
	c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for !bytes.Equal(tg.mat.Bytes(targetBase, 100), bytes.Repeat([]byte{0xEE}, 100)) {
		if time.Now().After(deadline) {
			t.Fatal("the bytes of a torn WRITE never landed")
		}
		time.Sleep(time.Millisecond)
	}
	tg.checkCanaries(t)
	if got := tg.mat.Bytes(targetBase+100, 8); !bytes.Equal(got, []byte("us!!port")) {
		t.Fatalf("bytes past the torn WRITE's arrived prefix changed: %q", got)
	}
}

// FuzzAgentFrames feeds arbitrary byte streams to the agent's request
// loop: no panic, no write outside the MR, and every reply it produced
// is a well-formed frame.
func FuzzAgentFrames(f *testing.F) {
	env := sim.NewRealEnv()
	for _, tc := range hostileFrames(newTarget(env)) {
		f.Add(tc.wire)
		f.Add(append(tc.wire, frame(verb(opRead, 1, 0, 64))...))
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		fab := NewTCPFabric(env)
		tg := newTarget(env)
		var out bytes.Buffer
		pc := peerConn{br: bufio.NewReaderSize(bytes.NewReader(wire), connBuf), bw: bufio.NewWriterSize(&out, connBuf)}
		for fab.serveOne(tg.node, &pc) == nil {
		}
		pc.bw.Flush() // replies still held behind a torn last request
		tg.checkCanaries(t)
		for out.Len() > 0 {
			if _, _, err := readReply(&out); err != nil {
				t.Fatalf("agent produced a malformed reply: %v", err)
			}
		}
	})
}

// TestTCPRefusalKeepsConnTransportErrorEvicts: a verb the remote agent
// (or this side) declines leaves the cached connection in place and in
// sync; a transport error evicts it.
func TestTCPRefusalKeepsConnTransportErrorEvicts(t *testing.T) {
	env := sim.NewRealEnv()
	srv, peer := NewTCPFabric(env), NewTCPFabric(env)
	t.Cleanup(srv.Close)
	t.Cleanup(peer.Close)
	server, client := NewNode(env, "server"), NewNode(env, "client")
	addr, err := peer.Serve(client, "")
	if err != nil {
		t.Fatal(err)
	}
	srv.AddPeer("client", addr)
	dev := memdev.New("gpu0", memdev.GPU, 1<<20, true)
	dev.Write(0, []byte("weights"))
	rmr := client.RegisterMR(env, dev, 0, 1<<16)
	spm := memdev.New("pmem0", memdev.PMEM, 1<<20, true)
	lmr := server.RegisterMR(env, spm, 0, 1<<16)
	vmr := server.RegisterMR(env, memdev.New("vpm", memdev.PMEM, 1<<20, false), 0, 1<<16)
	remote := func(rkey uint64, n int64) RemoteSlice {
		return RemoteSlice{MR: RemoteMR{Node: "client", RKey: rkey, Len: 1 << 16}, Len: n}
	}
	cached := func() *agentConn {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.conns["client"]
	}

	if err := srv.Read(env, server, Slice{MR: lmr, Len: 7}, remote(rmr.RKey, 7)); err != nil {
		t.Fatal(err)
	}
	first := cached()
	refusals := []struct {
		name string
		do   func() error
		want error
	}{
		{"remote: bad rkey on READ", func() error { return srv.Read(env, server, Slice{MR: lmr, Len: 7}, remote(999, 7)) }, nil},
		{"remote: bad rkey on a 64 KiB WRITE", func() error { return srv.Write(env, server, Slice{MR: lmr, Len: 1 << 16}, remote(999, 1<<16)) }, nil},
		{"remote: out of bounds", func() error {
			r := remote(rmr.RKey, 7)
			r.Off = 1 << 16
			return srv.Read(env, server, Slice{MR: lmr, Len: 7}, r)
		}, nil},
		{"local: 64 KiB of raw bytes arrive for a virtual region", func() error { return srv.Read(env, server, Slice{MR: vmr, Len: 1 << 16}, remote(rmr.RKey, 1<<16)) }, ErrModeMismatch},
		{"remote: stamp arrives for a materialized region", func() error { return srv.Write(env, server, Slice{MR: vmr, Len: 7}, remote(rmr.RKey, 7)) }, nil},
	}
	for _, tc := range refusals {
		err := tc.do()
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if cached() != first {
			t.Fatalf("%s: the refusal evicted the cached connection", tc.name)
		}
		if err := srv.Read(env, server, Slice{MR: lmr, Len: 7}, remote(rmr.RKey, 7)); err != nil {
			t.Fatalf("%s: next verb on the kept connection: %v", tc.name, err)
		}
		if got := spm.Bytes(0, 7); string(got) != "weights" {
			t.Fatalf("%s: next verb read %q", tc.name, got)
		}
	}

	peer.Close() // the peer goes away: a transport error
	if err := srv.Read(env, server, Slice{MR: lmr, Len: 7}, remote(rmr.RKey, 7)); err == nil {
		t.Fatal("verb on a dead peer succeeded")
	}
	if cached() != nil {
		t.Fatal("a transport error left the dead connection cached")
	}
}

// TestTCPSteadyStateAllocations: a verb allocates nothing proportional
// to the bytes it moves — no frame is built, on either side — and
// neither does an op of a posted list, in either direction.
func TestTCPSteadyStateAllocations(t *testing.T) {
	env, f, client, server := newTCPPair(t)
	const n, k = 1 << 20, 4 // k 1 MiB ops per posted list
	cgpu := memdev.New("gpu0", memdev.GPU, k*n, true)
	gpu.FillRegion(cgpu, 0, k*n, 1)
	spm := memdev.New("pmem0", memdev.PMEM, k*n, true)
	lmr := server.RegisterMR(env, spm, 0, k*n)
	rmr := RemoteMR{Node: "client", RKey: client.RegisterMR(env, cgpu, 0, k*n).RKey, Len: k * n}
	ops := make([]Op, k)
	for i := range ops {
		ops[i] = Op{L: Slice{MR: lmr, Off: int64(i) * n, Len: n}, R: RemoteSlice{MR: rmr, Off: int64(i) * n, Len: n}}
	}
	post := func(write bool) func() error {
		return func() (first error) {
			f.PostList(env, server, write, ops, func(_ int, err error) {
				if first == nil {
					first = err
				}
			})
			return first
		}
	}
	for _, tc := range []struct {
		name string
		ops  int
		do   func() error
	}{
		{"Read", 1, func() error { return f.Read(env, server, ops[0].L, ops[0].R) }},
		{"Write", 1, func() error { return f.Write(env, server, ops[0].L, ops[0].R) }},
		{"posted READ list", k, post(false)},
		{"posted WRITE list", k, post(true)},
	} {
		const runs = 20
		var before, after runtime.MemStats
		for i := 0; i < 3+runs; i++ {
			if i == 3 { // connections dialed, pools warm
				runtime.ReadMemStats(&before)
			}
			if err := tc.do(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / uint64(runs*tc.ops); per >= 1<<10 {
			t.Errorf("%s: a 1 MiB op allocates %d B, want < 1 KiB", tc.name, per)
		}
	}
	if !bytes.Equal(spm.Bytes(0, k*n), cgpu.Bytes(0, k*n)) {
		t.Fatal("bytes differ after the read/write rounds")
	}
}

// TestTwoLanesOneDataZone: two lanes pull into one PMem data zone at
// once, and one peer stops sending halfway through its reply. The other
// lane's verbs keep completing: no device-wide lock is held across a
// socket call, so a quiet peer stalls its own lane only.
func TestTwoLanesOneDataZone(t *testing.T) {
	env := sim.NewRealEnv()
	srv, peer := NewTCPFabric(env), NewTCPFabric(env)
	t.Cleanup(srv.Close)
	t.Cleanup(peer.Close)
	const n = 1 << 20
	server := NewNode(env, "server")
	zone := memdev.New("pmem0/data", memdev.PMEM, 2*n, true)
	zoneMR := server.RegisterMR(env, zone, 0, 2*n)

	// The healthy peer is a real agent.
	fast := NewNode(env, "fast")
	fgpu := memdev.New("gpu-fast", memdev.GPU, n, true)
	gpu.FillRegion(fgpu, 0, n, 1)
	fmr := fast.RegisterMR(env, fgpu, 0, n)
	addr, err := peer.Serve(fast, "")
	if err != nil {
		t.Fatal(err)
	}
	srv.AddPeer("fast", addr)

	// The quiet peer speaks the wire format by hand: it answers a READ
	// with the reply header and half the body, then waits.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv.AddPeer("quiet", ln.Addr().String())
	half, resume := make(chan struct{}), make(chan struct{})
	body := bytes.Repeat([]byte{0x5A}, n)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if _, err := io.ReadFull(c, make([]byte, 4+1+oneSided)); err != nil {
			return
		}
		c.Write(append(lenPrefix(2+n), 0, payloadBytes))
		c.Write(body[:n/2])
		close(half)
		<-resume
		c.Write(body[n/2:])
	}()

	stalled := make(chan error, 1)
	go func() {
		stalled <- srv.Read(env, server, Slice{MR: zoneMR, Off: n, Len: n},
			RemoteSlice{MR: RemoteMR{Node: "quiet", RKey: 1, Len: n}, Len: n})
	}()
	<-half
	healthy := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 8 && err == nil; i++ {
			err = srv.Read(env, server, Slice{MR: zoneMR, Len: n},
				RemoteSlice{MR: RemoteMR{Node: "fast", RKey: fmr.RKey, Len: n}, Len: n})
		}
		healthy <- err
	}()
	select {
	case err := <-healthy:
		if err != nil {
			t.Fatal(err)
		}
	case err := <-stalled:
		t.Fatalf("the stalled lane finished early: %v", err)
	case <-time.After(20 * time.Second):
		t.Fatal("a quiet peer on one lane blocked the other lane's pulls into the same data zone")
	}
	close(resume)
	if err := <-stalled; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zone.Bytes(0, n), fgpu.Bytes(0, n)) || !bytes.Equal(zone.Bytes(n, n), body) {
		t.Fatal("the two lanes' regions are not byte-identical to their sources")
	}
}
