package wire

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/sim"
)

func sampleMsg() *Msg {
	return &Msg{
		Type:       TRegister,
		Model:      "bert-large",
		ClientNode: "client0",
		FabricAddr: "127.0.0.1:9999",
		Iteration:  42,
		Tensors: []TensorRef{
			{Name: "embedding.weight", DType: 1, Dims: []int64{512, 1024}, Size: 2097152, RKey: 7},
			{Name: "encoder.bias", DType: 1, Dims: []int64{1024}, Size: 4096, RKey: 8},
		},
	}
}

func TestSimNetRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		n := NewSimNet()
		l, err := n.Listen(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("server", func(env sim.Env) {
			conn, err := l.Accept(env)
			if err != nil {
				t.Error(err)
				return
			}
			m, err := conn.Recv(env)
			if err != nil {
				t.Error(err)
				return
			}
			m.Type = TRegisterOK
			if err := conn.Send(env, m); err != nil {
				t.Error(err)
			}
		})
		conn, err := n.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(env, sampleMsg()); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv(env)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != TRegisterOK || resp.Model != "bert-large" {
			t.Fatalf("resp = %+v", resp)
		}
	})
	eng.Run()
}

func TestSimNetLatencyCharged(t *testing.T) {
	eng := sim.NewEngine()
	var sendTime int64
	eng.Go("test", func(env sim.Env) {
		n := NewSimNet()
		l, err := n.Listen(env, "s")
		if err != nil {
			t.Fatal(err)
		}
		env.Go("server", func(env sim.Env) {
			conn, _ := l.Accept(env)
			conn.Recv(env)
		})
		conn, err := n.Dial(env, "s")
		if err != nil {
			t.Fatal(err)
		}
		start := env.Now()
		if err := conn.Send(env, sampleMsg()); err != nil {
			t.Fatal(err)
		}
		sendTime = int64(env.Now() - start)
	})
	eng.Run()
	if sendTime == 0 {
		t.Fatal("control-plane send charged no virtual time")
	}
}

func TestSimNetDuplicateBindFails(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		n := NewSimNet()
		if _, err := n.Listen(env, "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Listen(env, "x"); err == nil {
			t.Error("duplicate bind succeeded")
		}
		if _, err := n.Dial(env, "nowhere"); err == nil {
			t.Error("dial to unbound name succeeded")
		}
	})
	eng.Run()
}

func TestSimConnClosedSendFails(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		n := NewSimNet()
		l, _ := n.Listen(env, "s")
		env.Go("server", func(env sim.Env) { l.Accept(env) })
		conn, _ := n.Dial(env, "s")
		conn.Close()
		if err := conn.Send(env, sampleMsg()); err != ErrClosed {
			t.Errorf("send after close = %v, want ErrClosed", err)
		}
	})
	eng.Run()
}

func TestNetConnGobRoundTrip(t *testing.T) {
	env := sim.NewRealEnv()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *Msg, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		nc := NewNetConn(c)
		m, err := nc.Recv(env)
		if err != nil {
			return
		}
		done <- m
		nc.Send(env, &Msg{Type: TRegisterOK, Model: m.Model})
	}()
	sock, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc := NewNetConn(sock)
	want := sampleMsg()
	if err := nc.Send(env, want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gob round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	resp, err := nc.Recv(env)
	if err != nil || resp.Type != TRegisterOK {
		t.Fatalf("resp = %+v, %v", resp, err)
	}
	nc.Close()
}

// TestBusyGobRoundTrip pins the BUSY backpressure reply's wire shape:
// the correlation type and the RetryAfter hint survive gob encoding.
func TestBusyGobRoundTrip(t *testing.T) {
	env := sim.NewRealEnv()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *Msg, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		nc := NewNetConn(c)
		m, err := nc.Recv(env)
		if err != nil {
			return
		}
		done <- m
	}()
	sock, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc := NewNetConn(sock)
	want := &Msg{
		Type: TBusy, Model: "gpt", Iteration: 41,
		InReplyTo: TDoCheckpoint, RetryAfter: 750 * time.Microsecond,
	}
	if err := nc.Send(env, want); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BUSY gob round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	nc.Close()
}

func TestTypeNames(t *testing.T) {
	for ty, want := range map[Type]string{
		TRegister: "REGISTER", TDoCheckpoint: "DO_CHECKPOINT",
		TCheckpointDone: "CHECKPOINT_DONE", TRestore: "RESTORE",
		TError: "ERROR", TBusy: "BUSY",
	} {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
	if Type(200).String() == "" {
		t.Error("unknown type has empty name")
	}
}

func TestApproxSizeGrowsWithContent(t *testing.T) {
	small := (&Msg{Type: TList}).approxSize()
	big := sampleMsg().approxSize()
	if big <= small {
		t.Fatalf("approxSize: big %d <= small %d", big, small)
	}
}

// TestTypeStringDoesNotAllocate pins the hot-path fix: Type.String for
// known types must index the package-level name table, not rebuild a
// map per call.
func TestTypeStringDoesNotAllocate(t *testing.T) {
	for _, ty := range []Type{TRegister, TDoCheckpoint, TCheckpointDone, TBusy, TTraceReport} {
		allocs := testing.AllocsPerRun(100, func() { _ = ty.String() })
		if allocs != 0 {
			t.Errorf("%s.String() allocates %.1f times per call, want 0", ty, allocs)
		}
	}
}

func TestTraceReportTypeName(t *testing.T) {
	if got := TTraceReport.String(); got != "TRACE_REPORT" {
		t.Fatalf("TTraceReport.String() = %q", got)
	}
}

// TestTraceContextGobCompat pins forward/backward compatibility of the
// trace fields: a message encoded without TraceID/SpanID (an old
// client) decodes with both zero — the untraced sentinel — and a
// traced message round-trips its ids intact.
func TestTraceContextGobCompat(t *testing.T) {
	env := sim.NewRealEnv()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *Msg, 2)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		nc := NewNetConn(c)
		for i := 0; i < 2; i++ {
			m, err := nc.Recv(env)
			if err != nil {
				return
			}
			done <- m
		}
	}()
	sock, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	nc := NewNetConn(sock)
	defer nc.Close()

	// Untraced request: gob omits zero fields, so this is byte-for-byte
	// what an old client sends.
	if err := nc.Send(env, &Msg{Type: TDoCheckpoint, Model: "m", Iteration: 1}); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got.TraceID != 0 || got.SpanID != 0 {
		t.Fatalf("untraced message decoded trace context %d/%d, want 0/0", got.TraceID, got.SpanID)
	}

	// Traced request round-trips both ids.
	want := &Msg{Type: TDoCheckpoint, Model: "m", Iteration: 2, TraceID: 0xa1, SpanID: 0xb2}
	if err := nc.Send(env, want); err != nil {
		t.Fatal(err)
	}
	got = <-done
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced gob round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestCallOutcomes: the one admin round trip hands back the wanted
// reply; a daemon ERROR comes back with its text in the error and its
// code on the reply; a stray reply type is an error naming both types;
// a dead connection surfaces the transport error itself.
func TestCallOutcomes(t *testing.T) {
	eng := sim.NewEngine()
	eng.Go("test", func(env sim.Env) {
		n := NewSimNet()
		l, err := n.Listen(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		replies := []*Msg{
			{Type: TListResp, Models: []ModelInfo{{Name: "m"}}},
			{Type: TError, Code: ErrCodeNoCheckpoint, Error: "nothing committed"},
			{Type: TDeleteOK},
		}
		env.Go("server", func(env sim.Env) {
			conn, err := l.Accept(env)
			if err != nil {
				t.Error(err)
				return
			}
			for _, r := range replies {
				if _, err := conn.Recv(env); err != nil {
					t.Error(err)
					return
				}
				if err := conn.Send(env, r); err != nil {
					t.Error(err)
				}
			}
			conn.Close()
		})
		conn, err := n.Dial(env, "storage")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := Call(env, conn, &Msg{Type: TList}, TListResp)
		if err != nil || len(resp.Models) != 1 {
			t.Fatalf("LIST = %+v, %v", resp, err)
		}
		resp, err = Call(env, conn, &Msg{Type: TDump, Model: "m"}, TDumpResp)
		if err == nil || err.Error() != "daemon: nothing committed" || resp == nil || resp.Code != ErrCodeNoCheckpoint {
			t.Fatalf("refused DUMP = %+v, %v; want the ERROR reply and its text", resp, err)
		}
		_, err = Call(env, conn, &Msg{Type: TList}, TListResp)
		if err == nil || err.Error() != "daemon: unexpected DELETE_OK reply to LIST" {
			t.Fatalf("stray reply: err = %v", err)
		}
		resp, err = Call(env, conn, &Msg{Type: TList}, TListResp)
		if !errors.Is(err, ErrClosed) || resp != nil {
			t.Fatalf("closed conn: %+v, %v; want ErrClosed and no reply", resp, err)
		}
	})
	eng.Run()
}
