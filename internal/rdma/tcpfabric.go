package rdma

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/sim"
)

// copyRegions moves n bytes (or the content stamp) between devices,
// converting the mixed-mode panic into an error at the verbs boundary.
func copyRegions(dst *memdev.Device, dstOff int64, src *memdev.Device, srcOff, n int64) error {
	if dst.Materialized() != src.Materialized() {
		return fmt.Errorf("%w: %s -> %s", ErrModeMismatch, src.Name(), dst.Name())
	}
	memdev.Copy(dst, dstOff, src, srcOff, n)
	return nil
}

// TCPFabric carries verbs over real sockets. Each served node runs an
// agent goroutine that owns its MR table; one-sided READ/WRITE are
// handled entirely by the agent, so the remote application never
// participates — the soft equivalent of RDMA's bypass property.
type TCPFabric struct {
	env sim.Env

	mu     sync.Mutex
	peers  map[string]string // node name -> agent address
	conns  map[string]*agentConn
	recvs  map[string]*sim.Mailbox[simMsg]
	closed []io.Closer
	// served is the agents' accepted connections; Close severs them so
	// peers see this fabric go away instead of talking to its MR tables
	// forever.
	served map[net.Conn]struct{}
}

// agentConn is a cached connection to a peer agent; requests on it are
// serialized.
type agentConn struct {
	mu sync.Mutex
	peerConn
}

// peerConn is one end of an agent connection. The two small buffers
// coalesce a frame's header, and a small body with it, into one syscall
// each way; a bulk body bypasses them (bufio hands a slice larger than
// its buffer straight to the socket), so it is never staged here.
type peerConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func newPeerConn(c net.Conn) peerConn {
	return peerConn{c: c, br: bufio.NewReaderSize(c, connBuf), bw: bufio.NewWriterSize(c, connBuf)}
}

// connBuf holds any verb header plus a 4 KiB page of payload.
const connBuf = 4096 + 64

// NewTCPFabric creates a fabric using env (normally a RealEnv) for its
// receive queues.
func NewTCPFabric(env sim.Env) *TCPFabric {
	return &TCPFabric{
		env:    env,
		peers:  make(map[string]string),
		conns:  make(map[string]*agentConn),
		recvs:  make(map[string]*sim.Mailbox[simMsg]),
		served: make(map[net.Conn]struct{}),
	}
}

// Serve starts the agent for node on addr (empty means an ephemeral
// loopback port) and returns the bound address. Peers reach the node's
// MRs through this agent.
func (f *TCPFabric) Serve(n *Node, addr string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rdma: agent listen: %w", err)
	}
	f.mu.Lock()
	f.peers[n.name] = ln.Addr().String()
	f.closed = append(f.closed, ln)
	f.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go f.serveConn(n, c)
		}
	}()
	return ln.Addr().String(), nil
}

// AddPeer registers the address of a remote node's agent (out-of-band
// address exchange, as InfiniBand does with its subnet manager).
//
// Re-pointing a name at a new address drops the connection cached for
// the old one: the node restarted (a recovering client re-registers
// under its old name), and verbs must reach the new agent.
func (f *TCPFabric) AddPeer(name, addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ac, ok := f.conns[name]; ok && f.peers[name] != addr {
		ac.c.Close()
		delete(f.conns, name)
	}
	f.peers[name] = addr
}

// PeerAddr looks up the agent address registered for a node (including
// nodes served by this fabric).
func (f *TCPFabric) PeerAddr(name string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	addr, ok := f.peers[name]
	return addr, ok
}

// Close shuts down all agents served by this fabric.
func (f *TCPFabric) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.closed {
		c.Close()
	}
	for _, ac := range f.conns {
		ac.c.Close()
	}
	for c := range f.served {
		c.Close()
	}
}

// Wire format. Every message is a length-prefixed frame:
//
//	request: u32 len | op | READ/WRITE: rkey off len [payload] | SEND: u16 qpLen qp u64 size bytes
//	reply:   u32 len | status | status 0: [payload] | status 1: error text
//	payload: mode | raw bytes (materialized) or u64 stamp (virtual)
//
// The length is known before the first byte is sent, so neither side
// builds a frame in memory: the sender writes the header and streams the
// region out of its device, the receiver parses the header and streams
// the body into the destination extent.
const (
	opRead  = 1
	opWrite = 2
	opSend  = 3

	payloadBytes = 0
	payloadStamp = 1

	maxFrame   = 1 << 30
	maxErrText = 4 << 10
	oneSided   = 24 // rkey | off | len
)

// refusal is a verb declined with the connection still in sync: the
// frame that carried it was consumed whole, so the next verb can follow.
// Any other error out of the frame code means the stream position is
// unknown and the connection must be closed.
type refusal struct{ error }

func refusef(format string, a ...any) error { return refusal{fmt.Errorf(format, a...)} }

// region is a byte range of a device: what a payload is streamed out of
// or into. The zero region (no device) stands for "no payload".
type region struct {
	dev    *memdev.Device
	off, n int64
}

// payloadSize is the encoded size of the region's content.
func (g region) payloadSize() int64 {
	if g.dev.Materialized() {
		return 1 + g.n
	}
	return 1 + 8
}

// writePayload encodes the region's content: raw bytes streamed from a
// materialized device, the content stamp of a virtual one.
func (g region) writePayload(w *bufio.Writer) error {
	if g.dev.Materialized() {
		if err := w.WriteByte(payloadBytes); err != nil {
			return err
		}
		return g.dev.StreamTo(w, g.off, g.n)
	}
	b := append(w.AvailableBuffer(), payloadStamp)
	_, err := w.Write(binary.LittleEndian.AppendUint64(b, g.dev.StampOf(g.off, g.n)))
	return err
}

// readPayload consumes a size-byte payload into the region. One that
// does not fit — wrong mode for the device, wrong length — is drained
// and refused before a byte of it reaches the device.
func (g region) readPayload(r *bufio.Reader, size int64) error {
	if size < 1 {
		return refusef("rdma: empty payload")
	}
	mode, err := r.ReadByte()
	if err != nil {
		return err
	}
	size--
	var why error
	switch {
	case mode > payloadStamp:
		why = refusef("rdma: unknown payload mode %d", mode)
	case mode == payloadBytes && !g.dev.Materialized():
		why = refusef("%w: raw bytes for virtual device %s", ErrModeMismatch, g.dev.Name())
	case mode == payloadStamp && g.dev.Materialized():
		why = refusef("%w: stamp for materialized device %s", ErrModeMismatch, g.dev.Name())
	case mode == payloadBytes && size != g.n:
		why = refusef("rdma: payload length %d, want %d", size, g.n)
	case mode == payloadStamp && size != 8:
		why = refusef("rdma: bad stamp payload length %d", size)
	}
	if why != nil {
		return drain(r, size, why)
	}
	if mode == payloadBytes {
		return g.dev.StreamFrom(r, g.off, g.n)
	}
	b, err := r.Peek(8)
	if err != nil {
		return err
	}
	g.dev.WriteStamp(g.off, g.n, binary.LittleEndian.Uint64(b))
	return drain(r, 8, nil)
}

// drain skips the n bytes left of a frame and returns why — unless the
// stream fails first, which is the error that then matters.
func drain(r *bufio.Reader, n int64, why error) error {
	if _, err := r.Discard(int(n)); err != nil {
		return err
	}
	return why
}

// readFrameLen reads a frame's length prefix.
func readFrameLen(r *bufio.Reader) (int64, error) {
	b, err := r.Peek(4)
	if err != nil {
		return 0, err
	}
	n := int64(binary.LittleEndian.Uint32(b))
	if n > maxFrame {
		return 0, fmt.Errorf("rdma: oversized frame (%d bytes)", n)
	}
	return n, drain(r, 4, nil)
}

func (f *TCPFabric) dial(remote string) (*agentConn, error) {
	f.mu.Lock()
	if ac, ok := f.conns[remote]; ok {
		f.mu.Unlock()
		return ac, nil
	}
	addr, ok := f.peers[remote]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRoute, remote)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rdma: dial agent %s: %w", remote, err)
	}
	ac := &agentConn{peerConn: newPeerConn(c)}
	f.mu.Lock()
	if prev, ok := f.conns[remote]; ok {
		f.mu.Unlock()
		c.Close()
		return prev, nil
	}
	f.conns[remote] = ac
	f.mu.Unlock()
	return ac, nil
}

// call runs one verb against remote's agent — the only request path and
// the only reply path. The request is the fields head appends after the
// length prefix, then out's content (WRITE); a successful reply's
// payload lands in in (READ). A refusal, the agent's or this side's,
// leaves the cached connection in place; a transport error evicts it, so
// the next verb redials instead of failing forever on a socket whose
// peer went away.
func (f *TCPFabric) call(remote, verb string, head func(b []byte) []byte, out, in region) error {
	ac, err := f.dial(remote)
	if err != nil {
		return err
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	err = ac.roundTrip(verb, head, out, in)
	if declined, ok := err.(refusal); ok {
		return declined.error
	}
	if err != nil {
		ac.c.Close()
		f.mu.Lock()
		if f.conns[remote] == ac {
			delete(f.conns, remote)
		}
		f.mu.Unlock()
	}
	return err
}

// writeFrame sends one frame: b, whose first four bytes it fills in with
// the frame length, followed by payload's content.
func (pc *peerConn) writeFrame(b []byte, payload region) error {
	size := int64(len(b) - 4)
	if payload.dev != nil {
		size += payload.payloadSize()
	}
	if size > maxFrame {
		return refusef("rdma: %d-byte frame exceeds the limit", size) // nothing sent: still in sync
	}
	binary.LittleEndian.PutUint32(b, uint32(size))
	if _, err := pc.bw.Write(b); err != nil {
		return fmt.Errorf("rdma: write frame header: %w", err)
	}
	if payload.dev != nil {
		if err := payload.writePayload(pc.bw); err != nil {
			return fmt.Errorf("rdma: write frame body: %w", err)
		}
	}
	if err := pc.bw.Flush(); err != nil {
		return fmt.Errorf("rdma: write frame: %w", err)
	}
	return nil
}

func (pc *peerConn) roundTrip(verb string, head func(b []byte) []byte, out, in region) error {
	if err := pc.writeFrame(head(append(pc.bw.AvailableBuffer(), 0, 0, 0, 0)), out); err != nil {
		return err
	}
	size, err := readFrameLen(pc.br)
	if err != nil {
		return err
	}
	if size < 1 {
		return refusef("rdma: remote %s: empty reply", verb)
	}
	status, err := pc.br.ReadByte()
	if err != nil {
		return fmt.Errorf("rdma: read frame body: %w", err)
	}
	size--
	switch {
	case status != 0:
		text := make([]byte, min(size, maxErrText))
		if _, err := io.ReadFull(pc.br, text); err != nil {
			return fmt.Errorf("rdma: read frame body: %w", err)
		}
		return drain(pc.br, size-int64(len(text)), refusef("rdma: remote %s: %s", verb, text))
	case in.dev == nil:
		return drain(pc.br, size, nil)
	}
	err = in.readPayload(pc.br, size)
	if _, declined := err.(refusal); err != nil && !declined {
		err = fmt.Errorf("rdma: read frame body: %w", err)
	}
	return err
}

// oneSidedHead encodes the fields of a READ or WRITE request.
func oneSidedHead(op byte, r RemoteSlice) func(b []byte) []byte {
	return func(b []byte) []byte {
		b = append(b, op)
		b = binary.LittleEndian.AppendUint64(b, r.MR.RKey)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Off))
		return binary.LittleEndian.AppendUint64(b, uint64(r.Len))
	}
}

// localRegion resolves a local slice to the device range behind it.
func localRegion(local *Node, l Slice, r RemoteSlice) (region, error) {
	if l.Len != r.Len {
		return region{}, fmt.Errorf("rdma: length mismatch: local %d, remote %d", l.Len, r.Len)
	}
	lmr, err := local.lookup(l.MR.RKey, l.Off, l.Len)
	if err != nil {
		return region{}, err
	}
	return region{dev: lmr.Dev, off: lmr.Off + l.Off, n: l.Len}, nil
}

// Read pulls r into l by asking the remote agent for the region content.
func (f *TCPFabric) Read(env sim.Env, local *Node, l Slice, r RemoteSlice) error {
	g, err := localRegion(local, l, r)
	if err != nil {
		return err
	}
	return f.call(r.MR.Node, "read", oneSidedHead(opRead, r), region{}, g)
}

// Write pushes l into r by shipping the region content to the remote
// agent.
func (f *TCPFabric) Write(env sim.Env, local *Node, l Slice, r RemoteSlice) error {
	g, err := localRegion(local, l, r)
	if err != nil {
		return err
	}
	return f.call(r.MR.Node, "write", oneSidedHead(opWrite, r), g, region{})
}

// Send delivers payload to the remote node's (qp) receive queue.
func (f *TCPFabric) Send(env sim.Env, local *Node, remote, qp string, payload []byte, size int64) error {
	return f.call(remote, "send", func(b []byte) []byte {
		b = append(b, opSend)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(qp)))
		b = append(b, qp...)
		b = binary.LittleEndian.AppendUint64(b, uint64(size))
		return append(b, payload...)
	}, region{}, region{})
}

// Recv blocks until a message for (local, qp) arrives.
func (f *TCPFabric) Recv(env sim.Env, local *Node, qp string) ([]byte, int64, error) {
	m, ok := f.box(local.name, qp).Recv(env)
	if !ok {
		return nil, 0, fmt.Errorf("rdma: recv on closed qp %s/%s", local.name, qp)
	}
	return m.payload, m.size, nil
}

func (f *TCPFabric) box(node, qp string) *sim.Mailbox[simMsg] {
	key := node + "/" + qp
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.recvs[key]
	if !ok {
		b = sim.NewMailbox[simMsg](f.env)
		f.recvs[key] = b
	}
	return b
}

// serveConn handles one peer connection against node's MR table until
// the stream is lost.
func (f *TCPFabric) serveConn(n *Node, c net.Conn) {
	f.mu.Lock()
	f.served[c] = struct{}{}
	f.mu.Unlock()
	defer func() {
		c.Close()
		f.mu.Lock()
		delete(f.served, c)
		f.mu.Unlock()
	}()
	pc := newPeerConn(c)
	for f.serveOne(n, &pc) == nil {
	}
}

// serveOne answers one request frame. A refused request is answered with
// its reason and is not an error here: the connection carries on.
func (f *TCPFabric) serveOne(n *Node, pc *peerConn) error {
	size, err := readFrameLen(pc.br)
	if err != nil {
		return err
	}
	reply, err := f.handle(n, pc.br, size)
	b := append(pc.bw.AvailableBuffer(), 0, 0, 0, 0)
	if declined, ok := err.(refusal); ok {
		b = append(append(b, 1), declined.Error()...)
	} else if err != nil {
		return err
	} else {
		b = append(b, 0)
	}
	return pc.writeFrame(b, reply)
}

// handle consumes the size bytes of one request and carries it out. For
// a READ it returns the region whose content is the reply. The MR is
// looked up before a WRITE's body is touched, so a body aimed at a bad
// rkey or outside the region is drained, never written.
func (f *TCPFabric) handle(n *Node, r *bufio.Reader, size int64) (reply region, err error) {
	if size < 1 {
		return region{}, refusef("empty request")
	}
	op, err := r.ReadByte()
	if err != nil {
		return region{}, err
	}
	size--
	switch op {
	case opRead, opWrite:
		if size < oneSided {
			return region{}, drain(r, size, refusef("short request"))
		}
		b, err := r.Peek(oneSided)
		if err != nil {
			return region{}, err
		}
		rkey := binary.LittleEndian.Uint64(b)
		off := int64(binary.LittleEndian.Uint64(b[8:]))
		length := int64(binary.LittleEndian.Uint64(b[16:]))
		if err := drain(r, oneSided, nil); err != nil {
			return region{}, err
		}
		size -= oneSided
		mr, err := n.lookup(rkey, off, length)
		if err != nil {
			return region{}, drain(r, size, refusal{err})
		}
		g := region{dev: mr.Dev, off: mr.Off + off, n: length}
		if op == opWrite {
			return region{}, g.readPayload(r, size)
		}
		switch {
		case size != 0:
			return region{}, drain(r, size, refusef("read request with a %d-byte body", size))
		case g.payloadSize() > maxFrame-1:
			return region{}, refusef("read of %d bytes exceeds the frame limit", length)
		}
		return g, nil
	case opSend:
		// The message is handed to its receiver, so it is read into memory
		// — as its bytes arrive, not sized by what the header claims.
		req, err := io.ReadAll(io.LimitReader(r, size))
		if err == nil && int64(len(req)) < size {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return region{}, err
		}
		if len(req) < 2 {
			return region{}, refusef("short send request")
		}
		qpLen := int(binary.LittleEndian.Uint16(req))
		if len(req) < 2+qpLen+8 {
			return region{}, refusef("short send request")
		}
		qp := string(req[2 : 2+qpLen])
		msgSize := int64(binary.LittleEndian.Uint64(req[2+qpLen:]))
		f.box(n.name, qp).Send(f.env, simMsg{payload: req[2+qpLen+8:], size: msgSize})
		return region{}, nil
	default:
		return region{}, drain(r, size, refusef("unknown op %d", op))
	}
}
