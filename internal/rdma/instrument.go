package rdma

import (
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// InstrumentedFabric wraps a Fabric with per-operation telemetry:
// bytes moved and op latency, labeled by fabric name and verb. The
// latency histogram's count is the completed-verb count. Latency is
// measured on the caller's env clock, so simulated fabrics report
// virtual time and the TCP fabric reports wall-clock time.
type InstrumentedFabric struct {
	inner Fabric

	readBytes, writeBytes, sendBytes *telemetry.Counter
	errs                             *telemetry.Counter
	readLat, writeLat, sendLat       *telemetry.Histogram
}

// Instrument wraps f so every verb is counted and timed into reg. The
// name label distinguishes fabrics when several share a registry.
func Instrument(name string, f Fabric, reg *telemetry.Registry) *InstrumentedFabric {
	fl := telemetry.L("fabric", name)
	op := func(verb string) []telemetry.Label {
		return []telemetry.Label{fl, telemetry.L("op", verb)}
	}
	return &InstrumentedFabric{
		inner:      f,
		readBytes:  reg.Counter("portus_rdma_bytes_total", "bytes moved by RDMA verbs", op("read")...),
		writeBytes: reg.Counter("portus_rdma_bytes_total", "bytes moved by RDMA verbs", op("write")...),
		sendBytes:  reg.Counter("portus_rdma_bytes_total", "bytes moved by RDMA verbs", op("send")...),
		errs:       reg.Counter("portus_rdma_errors_total", "failed RDMA verbs", fl),
		readLat:    reg.Histogram("portus_rdma_op_seconds", "completed RDMA verb latency", nil, op("read")...),
		writeLat:   reg.Histogram("portus_rdma_op_seconds", "completed RDMA verb latency", nil, op("write")...),
		sendLat:    reg.Histogram("portus_rdma_op_seconds", "completed RDMA verb latency", nil, op("send")...),
	}
}

// Inner returns the wrapped fabric.
func (f *InstrumentedFabric) Inner() Fabric { return f.inner }

// Read pulls remote bytes into the local slice, timing the verb.
func (f *InstrumentedFabric) Read(env sim.Env, local *Node, l Slice, r RemoteSlice) error {
	t0 := env.Now()
	err := f.inner.Read(env, local, l, r)
	if err != nil {
		f.errs.Inc()
		return err
	}
	f.readBytes.Add(l.Len)
	f.readLat.ObserveDuration(env.Now() - t0)
	return nil
}

// Write pushes local bytes into the remote slice, timing the verb.
func (f *InstrumentedFabric) Write(env sim.Env, local *Node, l Slice, r RemoteSlice) error {
	t0 := env.Now()
	err := f.inner.Write(env, local, l, r)
	if err != nil {
		f.errs.Inc()
		return err
	}
	f.writeBytes.Add(l.Len)
	f.writeLat.ObserveDuration(env.Now() - t0)
	return nil
}

// Send delivers a two-sided message, timing the verb.
func (f *InstrumentedFabric) Send(env sim.Env, local *Node, remote, qp string, payload []byte, size int64) error {
	t0 := env.Now()
	err := f.inner.Send(env, local, remote, qp, payload, size)
	if err != nil {
		f.errs.Inc()
		return err
	}
	f.sendBytes.Add(size)
	f.sendLat.ObserveDuration(env.Now() - t0)
	return nil
}

// PostList posts ops through the wrapped fabric, which must be a Poster
// (see PosterOf). A posted op's latency runs from the post to its own
// completion, so it includes the wait behind the ops ahead of it.
func (f *InstrumentedFabric) PostList(env sim.Env, local *Node, write bool, ops []Op, done func(i int, err error)) {
	moved, lat := f.readBytes, f.readLat
	if write {
		moved, lat = f.writeBytes, f.writeLat
	}
	t0 := env.Now()
	f.inner.(Poster).PostList(env, local, write, ops, func(i int, err error) {
		if err != nil {
			f.errs.Inc()
		} else {
			moved.Add(ops[i].L.Len)
			lat.ObserveDuration(env.Now() - t0)
		}
		done(i, err)
	})
}

// Recv blocks until a message for (node, qp) arrives.
func (f *InstrumentedFabric) Recv(env sim.Env, local *Node, qp string) ([]byte, int64, error) {
	return f.inner.Recv(env, local, qp)
}

// AddPeer forwards explicit peer-address exchange to the wrapped fabric
// when it supports it (the TCP soft-RDMA fabric), preserving the
// daemon's registration flow through the wrapper.
func (f *InstrumentedFabric) AddPeer(name, addr string) {
	if pa, ok := f.inner.(interface{ AddPeer(name, addr string) }); ok {
		pa.AddPeer(name, addr)
	}
}
