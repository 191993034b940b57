package portus_test

import (
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	portus "github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/daemon"
	"github.com/portus-sys/portus/internal/gpu"
	"github.com/portus-sys/portus/internal/telemetry"
	"github.com/portus-sys/portus/internal/wire"
)

const digestBlock = 64 << 10

// sentDigests records every DO_CHECKPOINT a client sends, with the
// digest vector as it was when sent, and checks that vector against the
// from-scratch BlockDigests of the GPU memory at that moment. It also
// keeps the attributes of each checkpoint's client "digest" span, read
// from the TRACE_REPORT that follows it.
type sentDigests struct {
	placed *gpu.PlacedModel

	mu    sync.Mutex
	msgs  []*wire.Msg
	kept  [][]uint64
	attrs map[uint64]map[string]string // by iteration
	errs  []string
}

func (s *sentDigests) see(m *wire.Msg) {
	if m.Type == wire.TTraceReport {
		var root telemetry.Span
		if json.Unmarshal(m.Payload, &root) == nil && root.Name == "client:checkpoint" {
			if dg := root.Find("digest"); dg != nil {
				s.mu.Lock()
				s.attrs[m.Iteration] = dg.Attrs
				s.mu.Unlock()
			}
		}
	}
	if m.Type != wire.TDoCheckpoint {
		return
	}
	want := s.placed.BlockDigests(digestBlock)
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.DeltaBlock != digestBlock || !slices.Equal(m.Digests, want) {
		s.errs = append(s.errs, fmt.Sprintf("DO_CHECKPOINT %d: %d digests at block %d differ from BlockDigests when sent",
			m.Iteration, len(m.Digests), m.DeltaBlock))
	}
	s.msgs = append(s.msgs, m)
	s.kept = append(s.kept, slices.Clone(m.Digests))
}

func newSentDigests() *sentDigests {
	return &sentDigests{attrs: make(map[uint64]map[string]string)}
}

func (s *sentDigests) reports() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.attrs)
}

// check fails on any vector that was wrong when sent, or that changed
// after it was handed to the transport, and on digest spans that do not
// say how much of the vector was hashed. hashedAll names the
// checkpoints that must have hashed every block; the others must have
// hashed some but not all.
func (s *sentDigests) check(t *testing.T, hashedAll map[uint64]bool) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.errs {
		t.Error(e)
	}
	if len(s.msgs) != len(hashedAll) {
		t.Fatalf("%d DO_CHECKPOINTs sent, want %d", len(s.msgs), len(hashedAll))
	}
	for i, m := range s.msgs {
		if !slices.Equal(m.Digests, s.kept[i]) {
			t.Errorf("DO_CHECKPOINT %d: its digest vector changed after it was sent", m.Iteration)
		}
		a := s.attrs[m.Iteration]
		blocks, err1 := strconv.Atoi(a["blocks"])
		hashed, err2 := strconv.Atoi(a["blocks_hashed"])
		bytes, err3 := strconv.ParseInt(a["hashed_bytes"], 10, 64)
		switch {
		case err1 != nil || err2 != nil || err3 != nil:
			t.Errorf("checkpoint %d: digest span attributes %v", m.Iteration, a)
		case blocks != len(m.Digests) || hashed < 1 || hashed > blocks || bytes < int64(hashed):
			t.Errorf("checkpoint %d: digest span says %d blocks, %d hashed, %d B, for a vector of %d",
				m.Iteration, blocks, hashed, bytes, len(m.Digests))
		case hashedAll[m.Iteration] != (hashed == blocks):
			t.Errorf("checkpoint %d hashed %d of %d blocks; hashing all of them: want %v",
				m.Iteration, hashed, blocks, hashedAll[m.Iteration])
		}
	}
}

// sendHook is a wire.Conn that shows every message it sends to see.
type sendHook struct {
	wire.Conn
	see func(*wire.Msg)
}

func (c sendHook) Send(env portus.Env, m *wire.Msg) error {
	c.see(m)
	return c.Conn.Send(env, m)
}

// runDigestFlow drives sparse update → checkpoint → clobber + restore →
// sparse update → checkpoint → sparse update → checkpoint. Every restore
// must be byte-identical, and both checkpoints after the restore must
// commit as deltas: a restore rewrites every GPU block through the
// fabric, and the client's digests of the checkpoints after it must see
// that — through the restored version's table, which RESTORE_DONE
// carries and the client seeds its digest cache with.
func runDigestFlow(t *testing.T, env portus.Env, m *portus.Model, d *daemon.Daemon, sent *sentDigests) {
	t.Helper()
	p := m.Placed()
	mem := p.GPU.Mem()
	ckpt := func(it uint64) []uint64 {
		t.Helper()
		m.ApplySparseUpdate(it, digestBlock, 0.05)
		if err := m.Checkpoint(env, it); err != nil {
			t.Fatalf("checkpoint %d: %v", it, err)
		}
		return p.BlockDigests(digestBlock)
	}
	want := ckpt(1)
	for i, tm := range p.Spec.Tensors {
		mem.Write(p.Offs[i], make([]byte, tm.Size))
	}
	// Digest the clobbered weights, so the cache holds the zeros: only
	// the restore's own writes can tell the next checkpoint otherwise.
	p.Digests(digestBlock)
	if it, err := m.Restore(env); err != nil || it != 1 {
		t.Fatalf("restore = iteration %d, %v; want 1", it, err)
	}
	if bad := p.VerifyDigests(digestBlock, want); bad != -1 {
		t.Fatalf("restored block %d is not what iteration 1 committed", bad)
	}
	ev := d.Events()
	for it := uint64(2); it <= 3; it++ {
		fallbacks, plans := ev.Count(telemetry.EvDeltaFallback), ev.Count(telemetry.EvDeltaPlan)
		want = ckpt(it)
		if ev.Count(telemetry.EvDeltaFallback) != fallbacks || ev.Count(telemetry.EvDeltaPlan) != plans+1 {
			t.Fatalf("checkpoint %d did not commit as a delta (fallbacks %d -> %d, plans %d -> %d)",
				it, fallbacks, ev.Count(telemetry.EvDeltaFallback), plans, ev.Count(telemetry.EvDeltaPlan))
		}
	}
	p.ApplyUpdate(99)
	if it, err := m.Restore(env); err != nil || it != 3 {
		t.Fatalf("restore = iteration %d, %v; want 3", it, err)
	}
	if bad := p.VerifyDigests(digestBlock, want); bad != -1 {
		t.Fatalf("restored block %d is not what iteration 3 committed", bad)
	}
	// Trace reports travel on their own process after each checkpoint.
	for i := 0; i < 1000 && sent.reports() < 3; i++ {
		env.Sleep(time.Millisecond)
	}
	// The first checkpoint hashes everything. The restore rewrote every
	// block, but with the seeded cache the checkpoint after it hashes only
	// what its sparse update wrote, as does the last: the clobbered
	// weights digested above did not survive the seed.
	sent.check(t, map[uint64]bool{1: true, 2: false, 3: false})
}

// TestDeltaDigestsSeeRestoresSim runs the flow on the simulated testbed,
// where DO_CHECKPOINT reaches the daemon as the very *wire.Msg the
// client built.
func TestDeltaDigestsSeeRestoresSim(t *testing.T) {
	var ran bool
	eng := portus.NewSimulation()
	eng.Go("test", func(env portus.Env) {
		tb, err := portus.NewTestbed(env, portus.TestbedConfig{
			ComputeNodes: 1, GPUsPerNode: 1, GPUMemBytes: 32 << 20,
			StorageNodes: 1, PMemBytes: 64 << 20, Materialized: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sent := newSentDigests()
		m, err := tb.PlaceModelOpts(env, 0, 0, smallSpec(t), portus.ClientOptions{
			DeltaBlockBytes: digestBlock,
			Dialer: func(env portus.Env) (portus.Conn, error) {
				conn, err := tb.Dial(env)
				return sendHook{Conn: conn, see: sent.see}, err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sent.placed = m.Placed()
		runDigestFlow(t, env, m, tb.Daemons[0], sent)
		ran = true
		m.Close()
		for _, d := range tb.Daemons {
			d.Halt(env)
		}
	})
	eng.Run()
	if !ran {
		t.Fatal("the flow did not finish")
	}
}

// TestDeltaDigestsSeeRestoresTCP runs the flow over real sockets, the
// client's control connection passing through a relay that reads each
// DO_CHECKPOINT on its way to the server.
func TestDeltaDigestsSeeRestoresTCP(t *testing.T) {
	srv, err := portus.NewServer(portus.ServerConfig{
		PMemBytes: 64 << 20, MetaBytes: 16 << 20, Materialized: true, DeltaEnabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()
	sent := newSentDigests()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go relay(ln, srv.CtrlAddr, sent.see)
	job, err := portus.NewJob(portus.JobConfig{
		ServerCtrlAddr: ln.Addr().String(), ServerFabricAddr: srv.FabricAddr,
		GPUMemBytes: 32 << 20, Materialized: true, DeltaBlockBytes: digestBlock,
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
	sent.placed = m.Placed()
	runDigestFlow(t, job.Env(), m, srv.Daemon(), sent)
}

// relay accepts control connections on ln and joins each to a fresh
// connection to addr, message by message, showing every message the
// client sends to see before forwarding it.
func relay(ln net.Listener, addr string, see func(*wire.Msg)) {
	env := portus.NewRealEnv()
	pipe := func(from, to wire.Conn, see func(*wire.Msg)) {
		defer from.Close()
		defer to.Close()
		for {
			m, err := from.Recv(env)
			if err != nil {
				return
			}
			if see != nil {
				see(m)
			}
			if to.Send(env, m) != nil {
				return
			}
		}
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", addr)
		if err != nil {
			c.Close()
			continue
		}
		client, server := wire.NewNetConn(c), wire.NewNetConn(s)
		go pipe(client, server, see)
		go pipe(server, client, nil)
	}
}
