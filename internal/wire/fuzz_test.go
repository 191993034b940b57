package wire

import (
	"bytes"
	"encoding/gob"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/portus-sys/portus/internal/sim"
)

// byteConn adapts a byte slice into a net.Conn so NetConn.Recv can be
// driven from arbitrary (possibly corrupt) input without a socket.
type byteConn struct{ r *bytes.Reader }

func (c *byteConn) Read(p []byte) (int, error)         { return c.r.Read(p) }
func (c *byteConn) Write(p []byte) (int, error)        { return len(p), nil }
func (c *byteConn) Close() error                       { return nil }
func (c *byteConn) LocalAddr() net.Addr                { return nil }
func (c *byteConn) RemoteAddr() net.Addr               { return nil }
func (c *byteConn) SetDeadline(t time.Time) error      { return nil }
func (c *byteConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *byteConn) SetWriteDeadline(t time.Time) error { return nil }

func encodeMsg(t testing.TB, m *Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzMsgDecode hammers the control-plane decode path with corrupted
// byte streams: whatever a misbehaving peer sends, Recv must return an
// error — never panic, never spin.
func FuzzMsgDecode(f *testing.F) {
	enc := func(m *Msg) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(enc(sampleMsg()))
	f.Add(enc(&Msg{Type: TDescribe, Model: "gpt", Iteration: 9}))
	f.Add(enc(&Msg{Type: TReplicate, Model: "gpt", Iteration: 9, ClientNode: "storage1", FabricAddr: "s1:7001",
		CRC: 0x1deadbeef, DeltaBlock: 64 << 10, Digests: []uint64{0xfeed, 0xbeef},
		Tensors: []TensorRef{{Name: "w", DType: 1, Dims: []int64{4, 4}, Size: 64, RKey: 1, Off: 1 << 20}}}))
	f.Add(enc(&Msg{Type: TError, Code: ErrCodeCorrupt, Error: "crc mismatch", InReplyTo: TRestore}))
	f.Add(enc(&Msg{Type: TPlacementResp, Epoch: 3, Replicas: 2,
		Placement: []PlacementEntry{{Node: "storage0", CtrlAddr: "s0:7000", FabricAddr: "s0:7001", Weight: 1 << 30}}}))
	f.Add(enc(&Msg{Type: TListResp, Models: []ModelInfo{
		{Name: "m", Slot0: "DONE", Slot0Iter: 4, Slot0CRC: 0xfeed, Slot1Iter: 3, Slot1CRC: 0xbeef, Node: "s1", Owner: "s1"},
	}}))
	f.Add(enc(&Msg{Type: TDoCheckpoint, Model: "gpt", Iteration: 12,
		DeltaBlock: 64 << 10, Digests: []uint64{0xfeed, 0, 0xbeef, ^uint64(0)}}))
	f.Add(enc(&Msg{Type: TDoCheckpoint, Model: "gpt", Iteration: 13, DeltaBlock: -1}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		env := sim.NewRealEnv()
		nc := NewNetConn(&byteConn{r: bytes.NewReader(data)})
		// A stream may legitimately hold several messages; drain a
		// bounded number so valid prefixes followed by garbage are
		// exercised too.
		for i := 0; i < 8; i++ {
			if _, err := nc.Recv(env); err != nil {
				return
			}
		}
	})
}

// TestReplicationFieldsGobRoundTrip pins the wire shape of the fields
// the replication protocol added: ERROR classification codes, the
// PLACEMENT_RESP replication factor, per-slot CRCs on LIST_RESP, and
// the DESCRIBE / REPLICATE re-replication pair: a holder's regions with
// their data-zone offsets, its stamp and its digest table.
func TestReplicationFieldsGobRoundTrip(t *testing.T) {
	env := sim.NewRealEnv()
	for _, want := range []*Msg{
		{Type: TError, Model: "gpt", Code: ErrCodeNoCheckpoint, Error: "no committed version", InReplyTo: TRestore},
		{Type: TError, Model: "gpt", Code: ErrCodeCorrupt, Error: "crc mismatch", InReplyTo: TRestore},
		{Type: TError, Model: "gpt", Code: ErrCodeMisplaced, Error: "placed elsewhere", InReplyTo: TReplicate},
		{Type: TPlacementResp, Epoch: 7, Replicas: 2, Placement: []PlacementEntry{
			{Node: "storage0", CtrlAddr: "s0:7000", FabricAddr: "s0:7001", Weight: 256 << 20},
			{Node: "storage1", CtrlAddr: "s1:7000", FabricAddr: "s1:7001", Weight: 256 << 20},
		}},
		{Type: TListResp, Models: []ModelInfo{{
			Name: "gpt/mp_rank_00", Tensors: 12, Bytes: 1 << 20,
			Slot0: "DONE", Slot1: "DONE", HasDone: true, LatestIter: 9,
			Slot0Iter: 9, Slot1Iter: 8, Slot0CRC: 0xabad1dea, Slot1CRC: 0x5eed,
			Node: "storage1", Owner: "storage1",
		}}},
		{Type: TDescribe, Model: "gpt/mp_rank_00", Iteration: 9},
		{Type: TReplicate, Model: "gpt/mp_rank_00", Iteration: 9, ClientNode: "storage0", FabricAddr: "s0:7001",
			CRC: 0x1abad1dea, DeltaBlock: 64 << 10, Digests: []uint64{7, 0, 9},
			Tensors: []TensorRef{{Name: "w", DType: 1, Dims: []int64{8}, Size: 32, RKey: 1, Off: 4096}}},
		{Type: TCheckpointDone, Model: "gpt", Iteration: 4, CRC: 0x1234},
		{Type: TDoCheckpoint, Model: "gpt", Iteration: 7, DeltaBlock: 64 << 10,
			Digests: []uint64{1, 2, 3, 0xdeadbeefcafef00d}},
	} {
		nc := NewNetConn(&byteConn{r: bytes.NewReader(encodeMsg(t, want))})
		got, err := nc.Recv(env)
		if err != nil {
			t.Fatalf("%s: recv: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s gob round trip mismatch:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
}

// TestReplicationFieldsGobCompat pins backward compatibility: a message
// encoded by a pre-replication peer (none of the new fields set) must
// decode with Code/Replicas/CRC/Slot CRCs at their zero values rather
// than failing, so mixed-version tiers keep talking.
func TestReplicationFieldsGobCompat(t *testing.T) {
	env := sim.NewRealEnv()
	old := &Msg{Type: TError, Model: "m", Error: "busy flag stuck", InReplyTo: TDoCheckpoint}
	nc := NewNetConn(&byteConn{r: bytes.NewReader(encodeMsg(t, old))})
	got, err := nc.Recv(env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != ErrCodeNone || got.CRC != 0 || got.Replicas != 0 {
		t.Fatalf("legacy ERROR decoded non-zero replication fields: %+v", got)
	}
	oldList := &Msg{Type: TListResp, Models: []ModelInfo{{Name: "m", Slot0: "DONE", Slot0Iter: 3}}}
	nc = NewNetConn(&byteConn{r: bytes.NewReader(encodeMsg(t, oldList))})
	got, err = nc.Recv(env)
	if err != nil {
		t.Fatal(err)
	}
	if mi := got.Models[0]; mi.Slot0CRC != 0 || mi.Slot1CRC != 0 {
		t.Fatalf("legacy LIST_RESP decoded non-zero CRCs: %+v", mi)
	}
}

// TestTensorRefOffsetGobCompat pins the offset REPLICATE added to
// TensorRef: a REGISTER from a peer whose TensorRef has no Off decodes
// with Off 0 — a GPU region — and everything else as before, and a
// zero Off sent to such a peer costs it nothing.
func TestTensorRefOffsetGobCompat(t *testing.T) {
	type legacyRef struct {
		Name  string
		DType uint8
		Dims  []int64
		Size  int64
		RKey  uint64
	}
	type legacyMsg struct {
		Type       Type
		Model      string
		ClientNode string
		Tensors    []legacyRef
	}
	var buf bytes.Buffer
	old := legacyMsg{Type: TRegister, Model: "gpt", ClientNode: "client0",
		Tensors: []legacyRef{{Name: "w", DType: 1, Dims: []int64{2, 8}, Size: 64, RKey: 3}}}
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	got, err := NewNetConn(&byteConn{r: bytes.NewReader(buf.Bytes())}).Recv(sim.NewRealEnv())
	if err != nil {
		t.Fatal(err)
	}
	want := &Msg{Type: TRegister, Model: "gpt", ClientNode: "client0",
		Tensors: []TensorRef{{Name: "w", DType: 1, Dims: []int64{2, 8}, Size: 64, RKey: 3}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy REGISTER decoded as\n got %+v\nwant %+v", got, want)
	}
	var back legacyMsg
	if err := gob.NewDecoder(bytes.NewReader(encodeMsg(t, want))).Decode(&back); err != nil || !reflect.DeepEqual(back, old) {
		t.Fatalf("a zero-offset REGISTER decodes on a legacy peer as %+v, %v; want %+v", back, err, old)
	}
}

// TestDeltaFieldsGobCompat pins the old-client path of incremental
// checkpointing: a DO_CHECKPOINT encoded by a pre-delta client carries
// no digest vector, so a delta-enabled daemon must decode the zero
// values (nil Digests, DeltaBlock 0) that mean "run a full checkpoint".
func TestDeltaFieldsGobCompat(t *testing.T) {
	env := sim.NewRealEnv()
	old := &Msg{Type: TDoCheckpoint, Model: "gpt", Iteration: 42, TraceID: 7, SpanID: 9}
	nc := NewNetConn(&byteConn{r: bytes.NewReader(encodeMsg(t, old))})
	got, err := nc.Recv(env)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digests != nil || got.DeltaBlock != 0 {
		t.Fatalf("legacy DO_CHECKPOINT decoded non-zero delta fields: %+v", got)
	}
	// And the reverse: a delta client's digest vector survives the trip
	// byte-for-byte, including zero digests inside the vector (gob must
	// not collapse them).
	newMsg := &Msg{Type: TDoCheckpoint, Model: "gpt", Iteration: 43,
		DeltaBlock: 128 << 10, Digests: []uint64{0, 5, 0, 7}}
	nc = NewNetConn(&byteConn{r: bytes.NewReader(encodeMsg(t, newMsg))})
	got, err = nc.Recv(env)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, newMsg) {
		t.Fatalf("delta DO_CHECKPOINT round trip mismatch:\n got %+v\nwant %+v", got, newMsg)
	}
}

// TestErrCodeNames pins the diagnostic names of the error taxonomy.
func TestErrCodeNames(t *testing.T) {
	for code, want := range map[ErrCode]string{
		ErrCodeNone:          "NONE",
		ErrCodeNoCheckpoint:  "NO_CHECKPOINT",
		ErrCodeCorrupt:       "CORRUPT",
		ErrCodeNotRegistered: "NOT_REGISTERED",
		ErrCodeMisplaced:     "MISPLACED",
		ErrCodeUnreachable:   "UNREACHABLE",
	} {
		if got := code.String(); got != want {
			t.Errorf("ErrCode(%d).String() = %q, want %q", code, got, want)
		}
	}
}
