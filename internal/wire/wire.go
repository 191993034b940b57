// Package wire is the Portus control plane: the TCP-over-IPoIB socket
// protocol between Portus Client and Portus Daemon (§III-B). It carries
// model registration packets (tensor metadata plus RDMA remote keys),
// the DO_CHECKPOINT / CHECKPOINT_DONE exchange, restore requests, and
// portusctl management traffic. Bulk tensor data never travels here —
// that is the one-sided RDMA datapath's job.
//
// Two transports implement the same Conn interface: an in-process
// simulated network (virtual-time latency per message) and real TCP with
// gob encoding.
package wire

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/portus-sys/portus/internal/perfmodel"
	"github.com/portus-sys/portus/internal/sim"
)

// Type discriminates control messages.
type Type uint8

// Message types.
const (
	TRegister Type = iota + 1
	TRegisterOK
	TDoCheckpoint
	TCheckpointDone
	TRestore
	TRestoreDone
	TList
	TListResp
	TDelete
	TDeleteOK
	TDump
	TDumpResp
	TError
	TBusy
	// TTraceReport carries the client's half of a span tree after a
	// traced request completes, so the daemon can stitch the end-to-end
	// trace. Payload holds the JSON-encoded telemetry.Span; TraceID
	// identifies the daemon trace to graft onto. Fire-and-forget: the
	// daemon never replies, and old daemons that predate the type just
	// log an unknown-message error without disturbing the session.
	TTraceReport
	// TPlacement asks a daemon for the storage tier's placement table;
	// TPlacementResp answers with the membership and its epoch, so a
	// client configured with any one member discovers the whole group's
	// routing instead of being configured with it.
	TPlacement
	TPlacementResp
	// TLoad installs a serialized checkpoint container (the DUMP_RESP
	// payload format) directly into a daemon's PMem as a DONE version —
	// the anti-entropy path that rebuilds a replacement replica from a
	// healthy peer's copy. TLoadOK acknowledges the install.
	TLoad
	TLoadOK
	// TRepack asks a running daemon to execute one online repack pass
	// (quiesced per model through the scheduler's maintenance class) and
	// waits for it to finish. TRepackResp carries the JSON-encoded
	// store.PassReport in Payload.
	TRepack
	TRepackResp
)

// typeNames is the Type.String lookup table, hoisted to package level:
// String runs on hot logging/labeling paths, and allocating a map per
// call showed up in profiles.
var typeNames = [...]string{
	TRegister: "REGISTER", TRegisterOK: "REGISTER_OK",
	TDoCheckpoint: "DO_CHECKPOINT", TCheckpointDone: "CHECKPOINT_DONE",
	TRestore: "RESTORE", TRestoreDone: "RESTORE_DONE",
	TList: "LIST", TListResp: "LIST_RESP",
	TDelete: "DELETE", TDeleteOK: "DELETE_OK",
	TDump: "DUMP", TDumpResp: "DUMP_RESP",
	TError: "ERROR", TBusy: "BUSY",
	TTraceReport: "TRACE_REPORT",
	TPlacement:   "PLACEMENT", TPlacementResp: "PLACEMENT_RESP",
	TLoad: "LOAD", TLoadOK: "LOAD_OK",
	TRepack: "REPACK", TRepackResp: "REPACK_RESP",
}

// ErrCode classifies an ERROR reply so clients can map daemon failures
// to typed sentinels instead of string-matching. Gob-compatible
// addition: zero (ErrCodeNone) means "unclassified", which is all a
// pre-replication daemon ever sends.
type ErrCode uint16

// Error codes.
const (
	ErrCodeNone ErrCode = iota
	// ErrCodeNoCheckpoint: no committed checkpoint version exists for
	// the requested model/iteration.
	ErrCodeNoCheckpoint
	// ErrCodeCorrupt: the stored copy failed its CRC integrity check; a
	// replicated client should fail over to another replica.
	ErrCodeCorrupt
	// ErrCodeNotRegistered: the model has no session on this daemon.
	ErrCodeNotRegistered
	// ErrCodeMisplaced: the placement table assigns the model elsewhere.
	ErrCodeMisplaced
	// ErrCodeUnreachable is never sent by a daemon: clients stamp it on
	// locally-fabricated ERROR replies (connection gone, request
	// deadline exceeded) so routers can tell transport loss — a suspect
	// node — from an application error.
	ErrCodeUnreachable
	// ErrCodeNoSpace: the data zone (or index) is out of space even
	// after an online reclamation pass. Registration replies carry a
	// RetryAfter hint — churned space may come back as tenants delete —
	// so clients back off and retry like they do for BUSY.
	ErrCodeNoSpace
)

// errCodeNames is the ErrCode.String lookup table.
var errCodeNames = [...]string{
	ErrCodeNone: "NONE", ErrCodeNoCheckpoint: "NO_CHECKPOINT",
	ErrCodeCorrupt: "CORRUPT", ErrCodeNotRegistered: "NOT_REGISTERED",
	ErrCodeMisplaced: "MISPLACED", ErrCodeUnreachable: "UNREACHABLE",
	ErrCodeNoSpace: "NO_SPACE",
}

// String names an error code.
func (c ErrCode) String() string {
	if int(c) < len(errCodeNames) && errCodeNames[c] != "" {
		return errCodeNames[c]
	}
	return fmt.Sprintf("ERRCODE(%d)", uint16(c))
}

// String names a message type.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// TensorRef is one tensor's registration record: metadata plus the
// remote key of its GPU memory region.
type TensorRef struct {
	Name  string
	DType uint8
	Dims  []int64
	Size  int64
	RKey  uint64
}

// ModelInfo summarizes a stored model for LIST responses.
type ModelInfo struct {
	Name       string
	Tensors    int
	Bytes      int64
	Slot0      string // version-state names
	Slot1      string
	LatestIter uint64
	HasDone    bool
	// Slot0Iter/Slot1Iter are the iterations held in each version slot
	// (meaningful when the matching state is DONE) — the raw material a
	// router needs to rebuild a group manifest from LIST responses.
	Slot0Iter uint64
	Slot1Iter uint64
	// Slot0CRC/Slot1CRC are the content fingerprints stamped into each
	// DONE record (zero for versions written before integrity stamping).
	Slot0CRC uint64
	Slot1CRC uint64
	// Node is the storage node answering the LIST; Owner is the node
	// the placement table assigns the model to. They differ only when a
	// model predates a membership change. Empty on pre-tier daemons.
	Node  string
	Owner string
}

// PlacementEntry is one storage-tier member in a PLACEMENT_RESP.
type PlacementEntry struct {
	Node       string
	CtrlAddr   string
	FabricAddr string
	// Weight is the member's placement weight (PMem capacity in bytes).
	Weight int64
}

// Msg is one control-plane message.
type Msg struct {
	Type       Type
	Model      string
	ClientNode string // RDMA node name of the client (for verbs routing)
	FabricAddr string // client agent address (TCP fabric peer exchange)
	Iteration  uint64
	Slot       int
	Error      string
	// InReplyTo carries the request type an ERROR or BUSY responds to,
	// so clients can release (or re-arm) the right waiter.
	InReplyTo Type
	// Code classifies an ERROR reply (gob-compatible addition; zero
	// from old daemons means unclassified).
	Code ErrCode
	// RetryAfter is the daemon's backpressure hint on a BUSY reply: how
	// long the client should wait before re-sending the request.
	RetryAfter time.Duration
	// TraceID propagates the client-minted trace identity; SpanID is
	// the client-side span the daemon's work should be grafted under.
	// Both are gob-compatible additions: messages from clients that
	// predate them decode with zero values, meaning "untraced", and old
	// decoders simply discard the fields.
	TraceID uint64
	SpanID  uint64
	Tensors []TensorRef
	Models  []ModelInfo
	// Epoch and Placement carry the placement table on PLACEMENT_RESP.
	// Gob-compatible additions: absent on old encoders, ignored by old
	// decoders.
	Epoch     uint64
	Placement []PlacementEntry
	// Replicas is the daemon's replication factor on PLACEMENT_RESP, so
	// tooling can render replica sets without separate configuration.
	Replicas int
	// CRC carries a checkpoint content fingerprint: stamped on
	// CHECKPOINT_DONE and DUMP_RESP, required on LOAD so the receiving
	// daemon records the same integrity mark as the source copy.
	CRC uint64
	// Digests carries the client's per-block content digest vector on
	// DO_CHECKPOINT (one 64-bit digest per DeltaBlock-sized block of
	// every tensor, flattened in registration order); DeltaBlock is the
	// block size the vector was computed under. Gob-compatible
	// additions: a pre-delta client sends neither, the daemon sees an
	// empty vector, and the checkpoint runs as a full transfer — old
	// clients keep working against a delta-enabled daemon.
	Digests    []uint64
	DeltaBlock int64
	// Payload carries a serialized checkpoint container (DUMP_RESP) or
	// a JSON span tree (TRACE_REPORT).
	Payload []byte
}

// approxSize estimates the wire size for latency modeling.
func (m *Msg) approxSize() int64 {
	size := int64(64 + len(m.Model) + len(m.ClientNode) + len(m.Error))
	for _, t := range m.Tensors {
		size += int64(len(t.Name)) + 48
	}
	size += int64(len(m.Models)) * 96
	for _, p := range m.Placement {
		size += int64(len(p.Node)+len(p.CtrlAddr)+len(p.FabricAddr)) + 16
	}
	size += int64(len(m.Digests)) * 8
	size += int64(len(m.Payload))
	return size
}

// ErrClosed reports operations on a closed connection.
var ErrClosed = errors.New("wire: connection closed")

// Conn is a bidirectional control channel.
type Conn interface {
	Send(env sim.Env, m *Msg) error
	Recv(env sim.Env) (*Msg, error)
	Close() error
}

// Call runs one admin round trip on a connection nothing else is
// receiving from: send req, receive one message, and return it when its
// type is want. A transport failure is returned as it is. Any other
// reply — normally the daemon's ERROR — comes back together with an
// error quoting its text, so a caller that needs the classification
// reads the reply's Code.
func Call(env sim.Env, conn Conn, req *Msg, want Type) (*Msg, error) {
	if err := conn.Send(env, req); err != nil {
		return nil, err
	}
	resp, err := conn.Recv(env)
	if err != nil {
		return nil, err
	}
	switch resp.Type {
	case want:
		return resp, nil
	case TError:
		return resp, fmt.Errorf("daemon: %s", resp.Error)
	}
	return resp, fmt.Errorf("daemon: unexpected %s reply to %s", resp.Type, req.Type)
}

// Listener accepts inbound connections.
type Listener interface {
	Accept(env sim.Env) (Conn, error)
	Close() error
}

// SimNet is the in-process network for virtual-time runs.
type SimNet struct {
	listeners map[string]*SimListener
}

// NewSimNet creates an empty network.
func NewSimNet() *SimNet {
	return &SimNet{listeners: make(map[string]*SimListener)}
}

// SimListener is a simulated listening socket.
type SimListener struct {
	name   string
	accept *sim.Mailbox[*simConn]
}

// Listen binds name on the simulated network.
func (n *SimNet) Listen(env sim.Env, name string) (*SimListener, error) {
	if _, ok := n.listeners[name]; ok {
		return nil, fmt.Errorf("wire: address %q already bound", name)
	}
	l := &SimListener{name: name, accept: sim.NewMailbox[*simConn](env)}
	n.listeners[name] = l
	return l, nil
}

// Accept blocks until a client dials.
func (l *SimListener) Accept(env sim.Env) (Conn, error) {
	c, ok := l.accept.Recv(env)
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

// Close unbinds the listener.
func (l *SimListener) Close() error {
	return nil
}

// Shutdown force-unbinds a listening name: pending and future Accepts
// fail with ErrClosed, and future Dials fail with "no listener" until
// the name is re-bound — how a whole-node kill makes a storage node
// unreachable (and how a replacement daemon can later reclaim the
// name). No-op if the name is not bound.
func (n *SimNet) Shutdown(env sim.Env, name string) {
	l, ok := n.listeners[name]
	if !ok {
		return
	}
	delete(n.listeners, name)
	if !l.accept.Closed(env) {
		l.accept.Close(env)
	}
}

// Dial connects to a bound name, charging one control-message latency.
func (n *SimNet) Dial(env sim.Env, name string) (Conn, error) {
	l, ok := n.listeners[name]
	if !ok {
		return nil, fmt.Errorf("wire: no listener at %q", name)
	}
	a2b := sim.NewMailbox[*Msg](env)
	b2a := sim.NewMailbox[*Msg](env)
	client := &simConn{env: env, in: b2a, out: a2b}
	server := &simConn{env: env, in: a2b, out: b2a}
	env.Sleep(perfmodel.TCPLatency)
	l.accept.Send(env, server)
	return client, nil
}

type simConn struct {
	// env is captured at dial time so Close — an env-less interface
	// method — can close the shared mailboxes from any process.
	env     sim.Env
	in, out *sim.Mailbox[*Msg]
	closed  bool
}

// Send charges the one-way control latency plus transmission time at an
// IPoIB-class gigabyte per second, then delivers.
func (c *simConn) Send(env sim.Env, m *Msg) error {
	if c.closed || c.out.Closed(env) {
		return ErrClosed
	}
	env.Sleep(perfmodel.TCPLatency/2 + sim.TransferTime(m.approxSize(), 1e9, 0, 0))
	if c.out.Closed(env) { // the peer closed while the message was in flight
		return ErrClosed
	}
	c.out.Send(env, m)
	return nil
}

func (c *simConn) Recv(env sim.Env) (*Msg, error) {
	m, ok := c.in.Recv(env)
	if !ok {
		return nil, ErrClosed
	}
	return m, nil
}

// Close tears the connection down in both directions, like a TCP reset:
// the peer's Recv drains any in-flight messages and then reports
// ErrClosed, and sends from either end fail.
func (c *simConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if !c.in.Closed(c.env) {
		c.in.Close(c.env)
	}
	if !c.out.Closed(c.env) {
		c.out.Close(c.env)
	}
	return nil
}

// NetConn is a gob-encoded control channel over a real socket.
type NetConn struct {
	c   net.Conn
	enc *gob.Encoder
	dec *gob.Decoder
	wmu sync.Mutex
}

// NewNetConn wraps a connected socket.
func NewNetConn(c net.Conn) *NetConn {
	return &NetConn{c: c, enc: gob.NewEncoder(c), dec: gob.NewDecoder(c)}
}

// Send encodes m onto the socket. Safe for concurrent use.
func (c *NetConn) Send(env sim.Env, m *Msg) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("wire: send: %w", err)
	}
	return nil
}

// Recv decodes the next message. Only one goroutine may call Recv.
func (c *NetConn) Recv(env sim.Env) (*Msg, error) {
	var m Msg
	if err := c.dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("wire: recv: %w", err)
	}
	return &m, nil
}

// Close closes the socket.
func (c *NetConn) Close() error { return c.c.Close() }

// NetListener adapts a net.Listener.
type NetListener struct{ L net.Listener }

// Accept waits for a TCP client.
func (l NetListener) Accept(env sim.Env) (Conn, error) {
	c, err := l.L.Accept()
	if err != nil {
		return nil, err
	}
	return NewNetConn(c), nil
}

// Close stops listening.
func (l NetListener) Close() error { return l.L.Close() }
