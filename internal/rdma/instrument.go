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

	readBytes, writeBytes *telemetry.Counter
	errs                  *telemetry.Counter
	readLat, writeLat     *telemetry.Histogram
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
		errs:       reg.Counter("portus_rdma_errors_total", "failed RDMA verbs", fl),
		readLat:    reg.Histogram("portus_rdma_op_seconds", "completed RDMA verb latency", nil, op("read")...),
		writeLat:   reg.Histogram("portus_rdma_op_seconds", "completed RDMA verb latency", nil, op("write")...),
	}
}

// PostList posts ops through the wrapped fabric. A posted op's latency
// runs from the post to its own completion, so it includes the wait
// behind the ops ahead of it.
func (f *InstrumentedFabric) PostList(env sim.Env, local *Node, write bool, ops []Op, done func(i int, err error)) {
	moved, lat := f.readBytes, f.readLat
	if write {
		moved, lat = f.writeBytes, f.writeLat
	}
	t0 := env.Now()
	f.inner.PostList(env, local, write, ops, func(i int, err error) {
		if err != nil {
			f.errs.Inc()
		} else {
			moved.Add(ops[i].L.Len)
			lat.ObserveDuration(env.Now() - t0)
		}
		done(i, err)
	})
}

// AddPeer forwards explicit peer-address exchange to the wrapped fabric
// when it supports it (the TCP soft-RDMA fabric), preserving the
// daemon's registration flow through the wrapper.
func (f *InstrumentedFabric) AddPeer(name, addr string) {
	if pa, ok := f.inner.(interface{ AddPeer(name, addr string) }); ok {
		pa.AddPeer(name, addr)
	}
}
