// Package store is the daemon's storage engine: the one layer that owns
// the PMem namespace end to end. It composes the persistent index
// (ModelTable → MIndex → TensorData), the data-zone allocator, and the
// repacker behind a single mutex and a single set of invariants:
//
//   - Transactional admission. Registering a model reserves the MIndex
//     record and allocates both version slots for every tensor as one
//     transaction — any partial failure rolls back every extent already
//     claimed instead of leaking it (index.CreateModel enforces this;
//     the engine adds the same discipline to slot re-allocation).
//   - Capacity accounting as first-class state. Live, fragmented, and
//     garbage bytes are tracked continuously and exported as
//     portus_store_*_bytes gauges, not reconstructed by an offline tool.
//   - Online reclamation. A maintenance pass compacts one model at a
//     time while the daemon keeps serving other tenants: the scheduler's
//     maintenance class leases per-model quiescence (the pass occupies
//     the model's lane like any task, so no checkpoint or restore for
//     that model can run concurrently), and every extent move follows
//     the offline repacker's crash discipline — allocate strictly below
//     the source, copy, flush, then repoint with one failure-atomic
//     persist, then free the source. A crash at any boundary leaves
//     either the old or the new extent reachable; the other side is an
//     allocated-but-unreferenced extent that Open's leak sweep reclaims.
//
// The offline repacker (portusctl repack -image) remains available for
// unmounted images and is byte-for-byte unchanged; the engine's online
// pass trades its global rewrite for per-model increments that
// interleave with live traffic.
package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/portus-sys/portus/internal/alloc"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/telemetry"
)

// Config parameterizes Open.
type Config struct {
	// PMem is the namespace the engine owns.
	PMem *pmem.Device
	// TableCap sizes the ModelTable when the namespace needs formatting;
	// 0 defaults to 64.
	TableCap int64
	// Telemetry receives the engine's gauges, counters, and the repack
	// duration histogram; nil creates a private registry.
	Telemetry *telemetry.Registry
}

// Stats is the engine's capacity breakdown.
type Stats struct {
	// Capacity is the data-zone size in bytes.
	Capacity int64
	// Live is the bytes held by allocated TensorData extents.
	Live int64
	// Frag is the bytes trapped in free gaps below the bump pointer —
	// reclaimable only by first-fit luck or a repack pass.
	Frag int64
	// Garbage is the bytes held by dead MIndex records in the metadata
	// zone (deleted models whose record space awaits reuse).
	Garbage int64
	// Free is the data-zone bytes still allocatable (gaps + tail).
	Free int64
	// HighWater is the bump pointer.
	HighWater int64
}

// PassReport summarizes one online repack pass (JSON-encoded into
// TRepackResp for portusctl).
type PassReport struct {
	Models         int           `json:"models"`
	BytesMoved     int64         `json:"bytes_moved"`
	BytesReclaimed int64         `json:"bytes_reclaimed"` // bump-pointer drop
	Live           int64         `json:"live_bytes"`
	Frag           int64         `json:"frag_bytes"`
	Garbage        int64         `json:"garbage_bytes"`
	Duration       time.Duration `json:"duration_ns"`
}

// String renders the report.
func (r PassReport) String() string {
	return fmt.Sprintf("repack: %d models, moved %d bytes, reclaimed %d bytes, live %d, frag %d, garbage %d, took %s",
		r.Models, r.BytesMoved, r.BytesReclaimed, r.Live, r.Frag, r.Garbage, r.Duration)
}

// watermark is the fragmented-bytes fraction of the data zone that makes
// NeedsRepack true.
const watermark = 0.5

// Engine is the storage engine. All mutating operations serialize on
// one mutex — which is what makes alloc.TrimBrk safe to call online —
// while reads of committed state (restore paths) stay lock-free as
// before.
type Engine struct {
	pm  *pmem.Device
	idx *index.Store

	mu sync.Mutex

	movedBytes *telemetry.Counter
	// dur is the repack-pass histogram; its count is the completed
	// passes.
	dur *telemetry.Histogram
}

// Open opens (or formats) the namespace and builds the engine. Any
// allocated extent no live model references — the residue of a crash
// between extent allocation and pointer repoint, or of the historical
// registration leak — is swept back to the free list.
func Open(cfg Config) (*Engine, error) {
	if cfg.TableCap == 0 {
		cfg.TableCap = 64
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	idx, err := index.Open(cfg.PMem)
	if errors.Is(err, index.ErrNotFormatted) {
		idx, err = index.Format(cfg.PMem, cfg.TableCap)
	}
	if err != nil {
		return nil, err
	}
	e := &Engine{pm: cfg.PMem, idx: idx}
	if err := e.sweepLeaks(); err != nil {
		return nil, err
	}
	a := idx.Allocator()
	reg.GaugeFunc("portus_store_capacity_bytes", "data-zone capacity",
		func() float64 { return float64(a.DataSize()) })
	reg.GaugeFunc("portus_store_live_bytes", "bytes held by allocated TensorData extents",
		func() float64 { return float64(a.InUse()) })
	reg.GaugeFunc("portus_store_frag_bytes", "bytes trapped in free gaps below the bump pointer",
		func() float64 { return float64(a.FragmentedBytes()) })
	reg.GaugeFunc("portus_store_garbage_bytes", "bytes held by dead MIndex records awaiting reuse",
		func() float64 { return float64(e.garbage()) })
	e.movedBytes = reg.Counter("portus_store_repack_moved_bytes_total", "TensorData bytes relocated by online repack passes")
	e.dur = reg.Histogram("portus_store_repack_seconds", "wall time of one online repack pass", nil)
	return e, nil
}

// sweepLeaks frees every allocated extent that no model's persistent
// pointers reference. Under the engine's crash discipline such extents
// are exactly the in-flight side of an interrupted move or registration;
// their bytes are garbage by construction.
func (e *Engine) sweepLeaks() error {
	models, err := e.idx.Models()
	if err != nil {
		return fmt.Errorf("store: leak sweep: %w", err)
	}
	referenced := make(map[int64]bool)
	for _, m := range models {
		for _, pa := range m.PAddr {
			for v := 0; v < 2; v++ {
				if pa[v] != 0 {
					referenced[pa[v]] = true
				}
			}
		}
	}
	a := e.idx.Allocator()
	for _, ext := range a.Live() {
		if !referenced[ext.Off] {
			if err := a.Free(ext.Off); err != nil {
				return fmt.Errorf("store: leak sweep: %w", err)
			}
		}
	}
	return nil
}

// Index exposes the persistent index (read paths, LIST, dumps).
func (e *Engine) Index() *index.Store { return e.idx }

// Allocator exposes the data-zone allocator for accounting.
func (e *Engine) Allocator() *alloc.Allocator { return e.idx.Allocator() }

// PMem returns the underlying namespace.
func (e *Engine) PMem() *pmem.Device { return e.pm }

func (e *Engine) garbage() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.idx.MIndexDead()
}

// Stats snapshots the capacity breakdown.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statsLocked()
}

func (e *Engine) statsLocked() Stats {
	a := e.idx.Allocator()
	return Stats{
		Capacity:  a.DataSize(),
		Live:      a.InUse(),
		Frag:      a.FragmentedBytes(),
		Garbage:   e.idx.MIndexDead(),
		Free:      a.FreeBytes(),
		HighWater: a.HighWater(),
	}
}

// NeedsRepack reports whether fragmentation crossed the watermark.
func (e *Engine) NeedsRepack() bool {
	a := e.idx.Allocator()
	return float64(a.FragmentedBytes()) >= watermark*float64(a.DataSize())
}

// IsSpaceError reports whether err is a reclaimable space exhaustion —
// the class a repack pass (or tenant churn) can relieve, which the
// daemon answers with a typed NO_SPACE retry-after instead of a hard
// failure.
func IsSpaceError(err error) bool {
	return errors.Is(err, alloc.ErrNoSpace) || errors.Is(err, index.ErrTableFull)
}

// CreateModel runs the transactional admission path: MIndex record plus
// both version slots per tensor, all-or-nothing.
func (e *Engine) CreateModel(name string, tensors []index.TensorMeta) (*index.Model, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.idx.CreateModel(name, tensors)
}

// EnsureSlots re-allocates any version slot the offline repacker
// reclaimed (PAddr 0), transactionally: on any failure every extent
// allocated by this call is freed and no pointer is repersisted.
func (e *Engine) EnsureSlots(m *index.Model) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	a := e.idx.Allocator()
	type pending struct {
		ti, v int
		off   int64
	}
	var news []pending
	for v := 0; v < 2; v++ {
		if m.HasSlot(v) {
			continue
		}
		for i, tm := range m.Tensors {
			off, err := a.Allocate(tm.Size)
			if err != nil {
				for _, p := range news {
					a.Free(p.off)
				}
				return fmt.Errorf("store: re-allocating slot %d for %q: %w", v, tm.Name, err)
			}
			news = append(news, pending{ti: i, v: v, off: off})
		}
	}
	// All allocations landed; only now repoint the persistent index.
	for _, p := range news {
		m.SetPAddr(p.ti, p.v, p.off)
	}
	return nil
}

// DeleteModel removes a model: tombstones the table entry, then frees
// its extents (index.Store.DeleteModel has the persist order), and
// returns its MIndex record bytes to the reuse pool. m is
// the caller's live handle; its pointers are cleared with the extents
// they named, so a maintenance step still queued behind the delete
// finds nothing to move instead of writing through freed pointers.
func (e *Engine) DeleteModel(m *index.Model) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.idx.DeleteModel(m.Name); err != nil {
		return err
	}
	for i := range m.PAddr {
		m.PAddr[i] = [2]int64{}
	}
	return nil
}

// CompactModel is the per-model maintenance step of an online repack
// pass. The caller must hold the model's quiesce lease (its scheduler
// lane) so no checkpoint or restore for this model is in flight; other
// models' traffic proceeds untouched.
//
// Every populated slot's extents are moved as low in the data zone as a
// strictly-below-source gap allows. Slots are never reclaimed online
// (unlike the offline tool): a live tenant's non-latest slot is its
// next checkpoint's destination, not garbage. Persist order per extent,
// and what a power failure after each leaves for Open:
//
//	allocate dst   nothing references it              → dst swept
//	flush dst      dst durable, pointer still on src  → dst swept
//	repoint        pointer repersisted to dst         → src swept
//	free src       move complete
//
// The pointer repoint is one 8-byte failure-atomic persist, so restore
// always sees entirely-old or entirely-new.
//
// m must be the handle the caller's data plane reads extents through
// (the daemon's one live handle per model). index.Store.Lookup returns
// a fresh handle with its own in-memory PAddr cache, so repointing a
// fresh one would leave the caller's copy stale — its next checkpoint
// would write through freed pointers into extents the allocator has
// since handed to someone else. The lane lease that quiesces the model
// also orders this handle mutation against the data plane's reads.
func (e *Engine) CompactModel(m *index.Model) (moved int64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a := e.idx.Allocator()
	for i := range m.Tensors {
		for v := 0; v < 2; v++ {
			src := m.PAddr[i][v]
			if src == 0 {
				continue
			}
			size := m.Tensors[i].Size
			dst, ok, aerr := a.AllocateBelow(size, src)
			if aerr != nil {
				return moved, aerr
			}
			if !ok {
				continue // no gap strictly below the source
			}
			memdev.Copy(e.pm.Data(), dst, e.pm.Data(), src, size)
			e.pm.FlushData(dst, size)
			m.SetPAddr(i, v, dst)
			if err := a.Free(src); err != nil {
				return moved, err
			}
			moved += size
		}
	}
	e.movedBytes.Add(moved)
	return moved, nil
}

// FinishPass completes an online repack pass after every model's
// CompactModel step ran: the bump pointer drops to the highest live
// byte (returning the tail to the lock-free fast path) and the
// ModelTable is compacted — both crash-atomic on their own (the trim
// persists one 8-byte word; the table flip is the same double-
// generation switch the offline tool uses). It returns the pass report
// and records the run in the engine's telemetry.
func (e *Engine) FinishPass(models int, movedBytes int64, took time.Duration, trace telemetry.TraceID) (PassReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	before := e.idx.Allocator().HighWater()
	newBrk := e.idx.Allocator().TrimBrk()
	if err := e.idx.CompactTable(); err != nil {
		return PassReport{}, err
	}
	st := e.statsLocked()
	rep := PassReport{
		Models:         models,
		BytesMoved:     movedBytes,
		BytesReclaimed: before - newBrk,
		Live:           st.Live,
		Frag:           st.Frag,
		Garbage:        st.Garbage,
		Duration:       took,
	}
	e.dur.ObserveDurationTraced(took, trace)
	return rep, nil
}

// RepackRuns reports completed online passes (the
// portus_store_repack_seconds histogram's count).
func (e *Engine) RepackRuns() int64 { return int64(e.dur.Count()) }
