package rdma

import (
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
	c  net.Conn
}

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

// Wire opcodes.
const (
	opRead  = 1
	opWrite = 2
	opSend  = 3
)

// Payload modes.
const (
	payloadBytes = 0
	payloadStamp = 1
)

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
	ac := &agentConn{c: c}
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

// roundTrip sends one request frame to remote's agent and returns the
// body of its reply. A transport error evicts the cached connection, so
// the next verb redials instead of failing forever on a socket whose
// peer went away.
func (f *TCPFabric) roundTrip(remote, verb string, req []byte) ([]byte, error) {
	ac, err := f.dial(remote)
	if err != nil {
		return nil, err
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	var resp []byte
	if err = writeFrame(ac.c, req); err == nil {
		resp, err = readFrame(ac.c)
	}
	if err != nil {
		ac.c.Close()
		f.mu.Lock()
		if f.conns[remote] == ac {
			delete(f.conns, remote)
		}
		f.mu.Unlock()
		return nil, err
	}
	if len(resp) == 0 {
		return nil, fmt.Errorf("rdma: remote %s: empty reply", verb)
	}
	if resp[0] != 0 {
		return nil, fmt.Errorf("rdma: remote %s: %s", verb, resp[1:])
	}
	return resp[1:], nil
}

// Read pulls r into l by asking the remote agent for the region content.
func (f *TCPFabric) Read(env sim.Env, local *Node, l Slice, r RemoteSlice) error {
	if l.Len != r.Len {
		return fmt.Errorf("rdma: length mismatch: local %d, remote %d", l.Len, r.Len)
	}
	lmr, err := local.lookup(l.MR.RKey, l.Off, l.Len)
	if err != nil {
		return err
	}
	req := make([]byte, 0, 32)
	req = append(req, opRead)
	req = binary.LittleEndian.AppendUint64(req, r.MR.RKey)
	req = binary.LittleEndian.AppendUint64(req, uint64(r.Off))
	req = binary.LittleEndian.AppendUint64(req, uint64(r.Len))
	payload, err := f.roundTrip(r.MR.Node, "read", req)
	if err != nil {
		return err
	}
	return applyPayload(lmr.Dev, lmr.Off+l.Off, l.Len, payload)
}

// Write pushes l into r by shipping the region content to the remote
// agent.
func (f *TCPFabric) Write(env sim.Env, local *Node, l Slice, r RemoteSlice) error {
	if l.Len != r.Len {
		return fmt.Errorf("rdma: length mismatch: local %d, remote %d", l.Len, r.Len)
	}
	lmr, err := local.lookup(l.MR.RKey, l.Off, l.Len)
	if err != nil {
		return err
	}
	req := make([]byte, 0, 64)
	req = append(req, opWrite)
	req = binary.LittleEndian.AppendUint64(req, r.MR.RKey)
	req = binary.LittleEndian.AppendUint64(req, uint64(r.Off))
	req = binary.LittleEndian.AppendUint64(req, uint64(r.Len))
	req = appendPayload(req, lmr.Dev, lmr.Off+l.Off, l.Len)
	_, err = f.roundTrip(r.MR.Node, "write", req)
	return err
}

// Send delivers payload to the remote node's (qp) receive queue.
func (f *TCPFabric) Send(env sim.Env, local *Node, remote, qp string, payload []byte, size int64) error {
	req := make([]byte, 0, 64+len(payload))
	req = append(req, opSend)
	req = binary.LittleEndian.AppendUint16(req, uint16(len(qp)))
	req = append(req, qp...)
	req = binary.LittleEndian.AppendUint64(req, uint64(size))
	req = append(req, payload...)
	_, err := f.roundTrip(remote, "send", req)
	return err
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

// serveConn handles one peer connection against node's MR table.
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
	for {
		req, err := readFrame(c)
		if err != nil {
			return
		}
		resp := f.handle(n, req)
		if err := writeFrame(c, resp); err != nil {
			return
		}
	}
}

func (f *TCPFabric) handle(n *Node, req []byte) []byte {
	fail := func(err error) []byte { return append([]byte{1}, err.Error()...) }
	if len(req) < 1 {
		return fail(fmt.Errorf("empty request"))
	}
	switch req[0] {
	case opRead:
		if len(req) < 25 {
			return fail(fmt.Errorf("short read request"))
		}
		rkey := binary.LittleEndian.Uint64(req[1:])
		off := int64(binary.LittleEndian.Uint64(req[9:]))
		length := int64(binary.LittleEndian.Uint64(req[17:]))
		mr, err := n.lookup(rkey, off, length)
		if err != nil {
			return fail(err)
		}
		return appendPayload([]byte{0}, mr.Dev, mr.Off+off, length)
	case opWrite:
		if len(req) < 26 {
			return fail(fmt.Errorf("short write request"))
		}
		rkey := binary.LittleEndian.Uint64(req[1:])
		off := int64(binary.LittleEndian.Uint64(req[9:]))
		length := int64(binary.LittleEndian.Uint64(req[17:]))
		mr, err := n.lookup(rkey, off, length)
		if err != nil {
			return fail(err)
		}
		if err := applyPayload(mr.Dev, mr.Off+off, length, req[25:]); err != nil {
			return fail(err)
		}
		return []byte{0}
	case opSend:
		if len(req) < 3 {
			return fail(fmt.Errorf("short send request"))
		}
		qpLen := int(binary.LittleEndian.Uint16(req[1:]))
		if len(req) < 3+qpLen+8 {
			return fail(fmt.Errorf("short send request"))
		}
		qp := string(req[3 : 3+qpLen])
		size := int64(binary.LittleEndian.Uint64(req[3+qpLen:]))
		payload := append([]byte(nil), req[3+qpLen+8:]...)
		f.box(n.name, qp).Send(f.env, simMsg{payload: payload, size: size})
		return []byte{0}
	default:
		return fail(fmt.Errorf("unknown op %d", req[0]))
	}
}

// appendPayload encodes the content of a device region: raw bytes for
// materialized devices, an 8-byte stamp for virtual ones.
func appendPayload(dst []byte, dev *memdev.Device, off, n int64) []byte {
	if dev.Materialized() {
		dst = append(dst, payloadBytes)
		return append(dst, dev.Bytes(off, n)...)
	}
	dst = append(dst, payloadStamp)
	return binary.LittleEndian.AppendUint64(dst, dev.StampOf(off, n))
}

// applyPayload decodes a payload into a device region.
func applyPayload(dev *memdev.Device, off, n int64, payload []byte) error {
	if len(payload) < 1 {
		return fmt.Errorf("rdma: empty payload")
	}
	switch payload[0] {
	case payloadBytes:
		if !dev.Materialized() {
			return fmt.Errorf("%w: raw bytes for virtual device %s", ErrModeMismatch, dev.Name())
		}
		if int64(len(payload)-1) != n {
			return fmt.Errorf("rdma: payload length %d, want %d", len(payload)-1, n)
		}
		dev.Write(off, payload[1:])
	case payloadStamp:
		if dev.Materialized() {
			return fmt.Errorf("%w: stamp for materialized device %s", ErrModeMismatch, dev.Name())
		}
		if len(payload) != 9 {
			return fmt.Errorf("rdma: bad stamp payload length %d", len(payload))
		}
		dev.WriteStamp(off, n, binary.LittleEndian.Uint64(payload[1:]))
	default:
		return fmt.Errorf("rdma: unknown payload mode %d", payload[0])
	}
	return nil
}

// writeFrame writes a length-prefixed frame.
func writeFrame(w io.Writer, p []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("rdma: write frame header: %w", err)
	}
	if _, err := w.Write(p); err != nil {
		return fmt.Errorf("rdma: write frame body: %w", err)
	}
	return nil
}

// readFrame reads a length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > 1<<30 {
		return nil, fmt.Errorf("rdma: oversized frame (%d bytes)", n)
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r, p); err != nil {
		return nil, fmt.Errorf("rdma: read frame body: %w", err)
	}
	return p, nil
}
