// Package pmem simulates an Intel Optane DC persistent-memory namespace
// as Portus uses it: byte-addressable, directly accessed from user space
// (devdax), with an explicit flush boundary standing in for
// CLWB+SFENCE. Writes land in a volatile cache image; only flushed
// regions survive Crash. This lets the double-mapping consistency scheme
// of the Portus daemon be tested against real crash semantics rather
// than assumed correct.
//
// A device has two zones sharing one address space:
//
//   - a metadata zone (always materialized) holding the persistent
//     three-level index — ModelTable, MIndex records — so offline tools
//     can re-parse a raw image;
//   - a data zone holding TensorData, materialized or virtual
//     (stamp-tracked) depending on configuration.
package pmem

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"github.com/portus-sys/portus/internal/memdev"
)

// Mode mirrors the kernel provisioning mode of the namespace.
type Mode int

// Namespace modes.
const (
	// Devdax exposes the namespace as a character device for direct
	// user-space access — the mode Portus requires (§III-D1).
	Devdax Mode = iota + 1
	// Fsdax exposes the namespace through a DAX filesystem — the mode
	// the BeeGFS-PMem baseline stacks on.
	Fsdax
)

// String returns the kernel name of the mode.
func (m Mode) String() string {
	switch m {
	case Devdax:
		return "devdax"
	case Fsdax:
		return "fsdax"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Media selects the backing medium.
type Media int

// Backing media.
const (
	// MediaPMem is Optane persistent memory (the default): flushed
	// state survives Crash.
	MediaPMem Media = iota
	// MediaDRAM is the paper's fallback when no PMem is detected
	// (§IV-a): same byte-addressable interface and faster writes, but
	// Crash loses everything — checkpoints only survive process
	// restarts, not power failures.
	MediaDRAM
)

// String names the medium.
func (m Media) String() string {
	if m == MediaDRAM {
		return "dram"
	}
	return "pmem"
}

// Config describes a namespace.
type Config struct {
	Name string
	// DataSize is the data-zone capacity in bytes.
	DataSize int64
	// MetaSize is the metadata-zone capacity; defaults to 16 MiB.
	MetaSize int64
	// Materialized selects real bytes (true) or stamp tracking (false)
	// for the data zone. The metadata zone is always materialized.
	Materialized bool
	// Mode is the namespace provisioning mode; defaults to Devdax.
	Mode Mode
	// Media selects PMem (default) or the volatile DRAM fallback.
	Media Media
}

// Device is one simulated persistent-memory namespace.
type Device struct {
	cfg Config

	meta       *memdev.Device
	metaDur    *memdev.Device // durable (flushed) image of meta
	data       *memdev.Device
	dataDur    *memdev.Device // durable (flushed) image of data
	crashCount int

	// Flush accounting (atomic: daemon workers flush concurrently under
	// the real runtime). The daemon exports these through its telemetry
	// registry.
	dataFlushOps   atomic.Int64
	dataFlushBytes atomic.Int64
	metaFlushOps   atomic.Int64

	// armed is the crash-injection point (FailAfter): 0 is disarmed,
	// n > 0 lets n-1 more persist operations through, and negative is
	// dark — at least one has been lost.
	armed atomic.Int64
}

// New creates a namespace.
func New(cfg Config) *Device {
	if cfg.MetaSize == 0 {
		cfg.MetaSize = 16 << 20
	}
	if cfg.Mode == 0 {
		cfg.Mode = Devdax
	}
	kind := memdev.PMEM
	if cfg.Media == MediaDRAM {
		kind = memdev.DRAM
	}
	return &Device{
		cfg:     cfg,
		meta:    memdev.New(cfg.Name+"/meta", kind, cfg.MetaSize, true),
		metaDur: memdev.New(cfg.Name+"/meta.dur", kind, cfg.MetaSize, true),
		data:    memdev.New(cfg.Name+"/data", kind, cfg.DataSize, cfg.Materialized),
		dataDur: memdev.New(cfg.Name+"/data.dur", kind, cfg.DataSize, cfg.Materialized),
	}
}

// Media reports the backing medium.
func (d *Device) Media() Media { return d.cfg.Media }

// Name returns the namespace name.
func (d *Device) Name() string { return d.cfg.Name }

// Mode returns the provisioning mode.
func (d *Device) Mode() Mode { return d.cfg.Mode }

// DataSize returns the data-zone capacity.
func (d *Device) DataSize() int64 { return d.cfg.DataSize }

// MetaSize returns the metadata-zone capacity.
func (d *Device) MetaSize() int64 { return d.cfg.MetaSize }

// Materialized reports whether the data zone holds real bytes.
func (d *Device) Materialized() bool { return d.cfg.Materialized }

// Data returns the data-zone device, which the daemon registers as RDMA
// memory regions for TensorData.
func (d *Device) Data() *memdev.Device { return d.data }

// CrashCount reports how many times Crash has been invoked (for tests).
func (d *Device) CrashCount() int { return d.crashCount }

// WriteMeta stores p at off in the metadata zone. The write is volatile
// until FlushMeta covers it.
func (d *Device) WriteMeta(off int64, p []byte) { d.meta.Write(off, p) }

// ReadMeta fills p from off in the metadata zone.
func (d *Device) ReadMeta(off int64, p []byte) { d.meta.Read(off, p) }

// MetaBytes returns a copy of [off, off+n) of the metadata zone.
func (d *Device) MetaBytes(off, n int64) []byte { return d.meta.Bytes(off, n) }

// FlushMeta persists metadata-zone region [off, off+n), standing in for
// CLWB of each line plus SFENCE.
func (d *Device) FlushMeta(off, n int64) {
	d.metaFlushOps.Add(1)
	if !d.lost() {
		memdev.Copy(d.metaDur, off, d.meta, off, n)
	}
}

// Persist8 atomically persists the 8-byte word at off in the metadata
// zone — the failure-atomic store Portus relies on for version flags.
func (d *Device) Persist8(off int64) { d.FlushMeta(off, 8) }

// FlushData persists data-zone region [off, off+n).
func (d *Device) FlushData(off, n int64) {
	d.dataFlushOps.Add(1)
	d.dataFlushBytes.Add(n)
	if !d.lost() {
		memdev.Copy(d.dataDur, off, d.data, off, n)
	}
}

// DataFlushOps reports how many data-zone flushes have run.
func (d *Device) DataFlushOps() int64 { return d.dataFlushOps.Load() }

// DataFlushBytes reports the cumulative bytes covered by data-zone
// flushes.
func (d *Device) DataFlushBytes() int64 { return d.dataFlushBytes.Load() }

// MetaFlushOps reports how many metadata-zone flushes (including
// Persist8 version-flag commits) have run.
func (d *Device) MetaFlushOps() int64 { return d.metaFlushOps.Load() }

// FailAfter arms the one crash-injection point of the system: the next
// k persist operations (FlushData, FlushMeta, Persist8) reach the
// durable image, and every later one is counted but lost — the device
// has gone dark — until Crash reverts the namespace and disarms. Durable
// state changes nowhere else, so sweeping k over an operation's persist
// count visits every state a power failure can leave behind. The code
// under test needs no abort path: it runs on believing its flushes
// landed, and only what it acknowledged while !Dark counts as committed.
func (d *Device) FailAfter(k int64) { d.armed.Store(k + 1) }

// Dark reports whether an armed device has lost a persist: everything
// acknowledged before that is durable, nothing after it is.
func (d *Device) Dark() bool { return d.armed.Load() < 0 }

// lost consumes one persist operation of an armed device's budget, or
// reports that it is spent and the operation lost. Disarmed, it is one
// atomic load.
func (d *Device) lost() bool {
	for {
		switch n := d.armed.Load(); {
		case n == 0:
			return false
		case n < 0 || n == 1:
			d.armed.Store(-1)
			return true
		case d.armed.CompareAndSwap(n, n-1):
			return false
		}
	}
}

// Crash simulates a power failure: all writes not covered by a flush are
// lost, and the device state reverts to the durable image. On the DRAM
// fallback medium nothing is durable: the whole namespace is wiped.
func (d *Device) Crash() {
	d.crashCount++
	d.armed.Store(0)
	if d.cfg.Media == MediaDRAM {
		fresh := New(d.cfg)
		d.meta, d.metaDur = fresh.meta, fresh.metaDur
		d.data, d.dataDur = fresh.data, fresh.dataDur
		return
	}
	memdev.Copy(d.meta, 0, d.metaDur, 0, d.cfg.MetaSize)
	memdev.Copy(d.data, 0, d.dataDur, 0, d.cfg.DataSize)
}

// Image file format.
const (
	imageMagic   = "PORTUSPM"
	imageVersion = 1
)

// SaveImage writes the durable state of the namespace to w, in the
// format portusctl understands.
func (d *Device) SaveImage(w io.Writer) error {
	hdr := make([]byte, 0, 64)
	hdr = append(hdr, imageMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, imageVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d.cfg.Mode))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.cfg.MetaSize))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(d.cfg.DataSize))
	mat := byte(0)
	if d.cfg.Materialized {
		mat = 1
	}
	hdr = append(hdr, mat)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("pmem: write image header: %w", err)
	}
	if err := d.metaDur.StreamTo(w, 0, d.cfg.MetaSize); err != nil {
		return fmt.Errorf("pmem: write meta zone: %w", err)
	}
	if d.cfg.Materialized {
		if err := d.dataDur.StreamTo(w, 0, d.cfg.DataSize); err != nil {
			return fmt.Errorf("pmem: write data zone: %w", err)
		}
		return nil
	}
	stamps := d.dataDur.Stamps()
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(stamps)))
	for _, s := range stamps {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Off))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.N))
		buf = binary.LittleEndian.AppendUint64(buf, s.Stamp)
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("pmem: write stamp table: %w", err)
	}
	return nil
}

// LoadImage reconstructs a namespace from an image produced by
// SaveImage. The loaded state is durable (as if freshly flushed).
func LoadImage(name string, r io.Reader) (*Device, error) {
	hdr := make([]byte, len(imageMagic)+4+4+8+8+1)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("pmem: read image header: %w", err)
	}
	if string(hdr[:len(imageMagic)]) != imageMagic {
		return nil, fmt.Errorf("pmem: bad image magic %q", hdr[:len(imageMagic)])
	}
	p := hdr[len(imageMagic):]
	if v := binary.LittleEndian.Uint32(p); v != imageVersion {
		return nil, fmt.Errorf("pmem: unsupported image version %d", v)
	}
	cfg := Config{
		Name:         name,
		Mode:         Mode(binary.LittleEndian.Uint32(p[4:])),
		MetaSize:     int64(binary.LittleEndian.Uint64(p[8:])),
		DataSize:     int64(binary.LittleEndian.Uint64(p[16:])),
		Materialized: p[24] == 1,
	}
	d := New(cfg)
	if err := d.metaDur.StreamFrom(r, 0, cfg.MetaSize); err != nil {
		return nil, fmt.Errorf("pmem: read meta zone: %w", err)
	}
	memdev.Copy(d.meta, 0, d.metaDur, 0, cfg.MetaSize)
	if cfg.Materialized {
		if err := d.dataDur.StreamFrom(r, 0, cfg.DataSize); err != nil {
			return nil, fmt.Errorf("pmem: read data zone: %w", err)
		}
		memdev.Copy(d.data, 0, d.dataDur, 0, cfg.DataSize)
		return d, nil
	}
	var cnt [8]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("pmem: read stamp count: %w", err)
	}
	n := binary.LittleEndian.Uint64(cnt[:])
	rec := make([]byte, 24)
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, rec); err != nil {
			return nil, fmt.Errorf("pmem: read stamp record %d: %w", i, err)
		}
		off := int64(binary.LittleEndian.Uint64(rec))
		ln := int64(binary.LittleEndian.Uint64(rec[8:]))
		stamp := binary.LittleEndian.Uint64(rec[16:])
		d.data.WriteStamp(off, ln, stamp)
		d.dataDur.WriteStamp(off, ln, stamp)
	}
	return d, nil
}

// SaveImageFile writes the durable image to path.
func (d *Device) SaveImageFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("pmem: create image: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("pmem: close image: %w", cerr)
		}
	}()
	return d.SaveImage(f)
}

// LoadImageFile reconstructs a namespace from the image at path.
func LoadImageFile(name, path string) (*Device, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pmem: open image: %w", err)
	}
	defer f.Close()
	return LoadImage(name, f)
}
