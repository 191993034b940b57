// Package index implements Portus's three-level persistent index
// (§III-D1):
//
//	ModelTable ──► MIndex ──► TensorData
//
// The root-level ModelTable is an array in the PMem metadata zone
// mapping model names to MIndex offsets. Each MIndex record holds a
// model's full tensor metadata — layer count, per-tensor name, dtype,
// shape, size — plus persistent pointers (data-zone offsets) to the
// TensorData regions, of which there are two per tensor: the double
// mapping that keeps one valid checkpoint version durable at all times
// (§III-D2, Figure 6). TensorData regions are raw tensor payloads
// pulled straight from GPU memory over RDMA; no serialization ever
// touches them.
//
// The structure is built once at model registration; each checkpoint
// afterwards rewrites only the target version header and the tensor
// payloads. Version-state transitions use 8-byte failure-atomic
// persists, so recovery can always pick the newest slot whose state is
// StateDone.
//
// ModelTable writes: new entries are appended (entry persisted before
// the count), because inserting in sorted position would shift entries
// non-atomically. The sorted-array invariant the paper describes is
// restored by CompactTable — a crash-atomic rewrite that uses two table
// generations and flips between them with one failure-atomic persist,
// the same double-mapping idea the version slots use. Lookups never
// depend on sortedness: the daemon's in-DRAM ModelMap (a name-keyed map
// of live handles) serves them.
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/portus-sys/portus/internal/alloc"
	"github.com/portus-sys/portus/internal/delta"
	"github.com/portus-sys/portus/internal/pmem"
)

// On-media layout constants.
const (
	superMagic  = 0x5849535554524f50 // "PORTUSIX" little-endian
	mindexMagic = 0x5844494d         // "MIDX"

	superSize  = 64
	nameMax    = 126
	entrySize  = 8 + 2 + nameMax // infoOff | nameLen | name
	tensorName = 96
	tensorRec  = tensorName + 2 + 2 + 4*8 + 8 + 16 // name|dtype|ndims|dims|size|paddr[2]
	verHdrSize = 32                                // state | iteration | savedAt | crc
	mindexHdr  = 8 + 2 + nameMax + 2 + 2*verHdrSize

	// AllocTableLen is the metadata-zone space reserved for the
	// allocation table (at the end of the zone).
	AllocTableLen = 4 << 20

	// headerMin is the smallest plausible allocation-table header, used
	// to validate a superblock's alloc offset.
	headerMin = 32
)

// formatVersion is the superblock's format number. Format 1 stamped DONE
// versions with CRC-64/ECMA; format 2 stamps them with CRC-32C. Open
// upgrades a format-1 image by dropping its stamps (dropLegacyStamps),
// so the tree verifies exactly one kind of stamp.
const formatVersion = 2

// Superblock field offsets.
const (
	sbMagic    = 0
	sbVersion  = 8
	sbTableOff = 16
	sbTableCap = 24
	// sbCountGen packs the live entry count (bits 63..1) and the active
	// table generation (bit 0) into one word, so compaction can switch
	// both with a single failure-atomic persist — the same double-
	// mapping idea the version slots use.
	sbCountGen  = 32
	sbMindexBrk = 40
	sbAllocOff  = 48
	// sbDeltaBrk is the bottom of the delta digest-table region, which
	// grows downward from the allocation table toward the MIndex break.
	// Pre-delta images hold zero here, which Open reads as "empty region
	// at allocOff" — a gob-style compatible extension of the superblock.
	sbDeltaBrk = 56
)

// Delta digest-table record layout: a packed sequence of records filling
// [deltaBrk, allocOff), each
//
//	recLen | state | infoOff | slot | blockBytes | iteration | layout |
//	count | digests[count] | crc
//
// of uint64 words. recLen is written once at allocation and never
// changes, so the region stays walkable whatever state each record is
// in; state is the 8-byte failure-atomic validity toggle (invalid while
// a rewrite is in flight, dead after the owning model or slot goes
// away); crc covers words [2, 8+count) and catches torn body writes.
const (
	deltaHdr     = 64 // words 0..7
	deltaInvalid = uint64(0)
	deltaValid   = uint64(1)
	deltaDead    = uint64(2)
)

// deltaKey identifies a digest record: the owning model's MIndex offset
// plus the version slot.
type deltaKey struct {
	infoOff int64
	slot    int
}

// Version states. The zero state means the slot has never completed a
// checkpoint.
const (
	StateEmpty  uint64 = 0
	StateActive uint64 = 1
	StateDone   uint64 = 2
)

// StateName returns a human-readable version state.
func StateName(s uint64) string {
	switch s {
	case StateEmpty:
		return "empty"
	case StateActive:
		return "active"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", s)
	}
}

// DType identifies a tensor element type.
type DType uint8

// Tensor element types.
const (
	F32 DType = iota + 1
	F16
	BF16
	I64
	I32
	U8
)

// String returns the framework-style dtype name.
func (d DType) String() string {
	switch d {
	case F32:
		return "float32"
	case F16:
		return "float16"
	case BF16:
		return "bfloat16"
	case I64:
		return "int64"
	case I32:
		return "int32"
	case U8:
		return "uint8"
	default:
		return fmt.Sprintf("dtype(%d)", uint8(d))
	}
}

// ElemSize returns the element width in bytes.
func (d DType) ElemSize() int64 {
	switch d {
	case F32, I32:
		return 4
	case F16, BF16:
		return 2
	case I64:
		return 8
	case U8:
		return 1
	default:
		return 0
	}
}

// TensorMeta describes one tensor of a model, as carried in the
// registration packet and stored in the MIndex record.
type TensorMeta struct {
	Name  string
	DType DType
	Dims  []int64 // up to 4 dimensions
	Size  int64   // payload bytes
}

// Errors.
var (
	ErrNotFormatted = errors.New("index: namespace not formatted")
	ErrModelExists  = errors.New("index: model already registered")
	ErrNoModel      = errors.New("index: model not found")
	ErrTableFull    = errors.New("index: ModelTable full")
	ErrCorrupt      = errors.New("index: corrupt record")
)

// Store is an open three-level index on one namespace.
type Store struct {
	pm    *pmem.Device
	alloc *alloc.Allocator

	tableBase  int64 // generation-0 table; generation 1 follows it
	tableCap   int64
	tableGen   int64 // active generation (0 or 1)
	allocOff   int64
	modelCount int64
	mindexBrk  int64
	deltaBrk   int64 // bottom of the delta digest-table region

	// deltaIdx maps (model, slot) to its digest record; deltaFree holds
	// dead records by size for reuse. Both rebuilt at Open by walking the
	// record region.
	deltaIdx  map[deltaKey]int64
	deltaFree map[int64][]int64

	// mindexFree tracks dead MIndex byte ranges (deleted models) below
	// the break, sorted by offset and coalesced. In-memory only: the
	// on-media layout is unchanged (a dead record is simply one no table
	// entry references), so images stay byte-compatible with pre-engine
	// tools. Rebuilt at Open from the gaps between live records;
	// CreateModel first-fits from it before bumping the break.
	mindexFree []alloc.Extent
}

// tableOff returns the active table region's base offset.
func (s *Store) tableOff() int64 {
	return s.tableBase + s.tableGen*s.tableCap*entrySize
}

// persistCountGen writes the packed count|generation word atomically.
func (s *Store) persistCountGen() {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(s.modelCount<<1|s.tableGen))
	s.pm.WriteMeta(sbCountGen, b[:])
	s.pm.Persist8(sbCountGen)
}

// Format initializes a namespace: superblock, empty ModelTable with
// tableCap entries, and a fresh allocation table.
func Format(pm *pmem.Device, tableCap int64) (*Store, error) {
	allocOff := pm.MetaSize() - AllocTableLen
	tableBase := int64(superSize)
	// Two table generations, so compaction can rewrite the inactive one
	// and flip atomically.
	mindexStart := tableBase + 2*tableCap*entrySize
	if mindexStart >= allocOff {
		return nil, fmt.Errorf("index: metadata zone too small for %d table entries", tableCap)
	}
	a, err := alloc.Format(pm, allocOff, AllocTableLen)
	if err != nil {
		return nil, err
	}
	s := &Store{
		pm:        pm,
		alloc:     a,
		tableBase: tableBase,
		tableCap:  tableCap,
		allocOff:  allocOff,
		mindexBrk: mindexStart,
		deltaBrk:  allocOff,
		deltaIdx:  map[deltaKey]int64{},
		deltaFree: map[int64][]int64{},
	}
	sb := make([]byte, superSize)
	binary.LittleEndian.PutUint64(sb[sbMagic:], superMagic)
	binary.LittleEndian.PutUint64(sb[sbVersion:], formatVersion)
	binary.LittleEndian.PutUint64(sb[sbTableOff:], uint64(tableBase))
	binary.LittleEndian.PutUint64(sb[sbTableCap:], uint64(tableCap))
	binary.LittleEndian.PutUint64(sb[sbCountGen:], 0)
	binary.LittleEndian.PutUint64(sb[sbMindexBrk:], uint64(s.mindexBrk))
	binary.LittleEndian.PutUint64(sb[sbAllocOff:], uint64(allocOff))
	binary.LittleEndian.PutUint64(sb[sbDeltaBrk:], uint64(s.deltaBrk))
	pm.WriteMeta(0, sb)
	pm.FlushMeta(0, superSize)
	return s, nil
}

// Open parses an existing index from the raw namespace — the path both
// the restarted daemon and portusctl take.
func Open(pm *pmem.Device) (*Store, error) {
	sb := pm.MetaBytes(0, superSize)
	if binary.LittleEndian.Uint64(sb[sbMagic:]) != superMagic {
		return nil, ErrNotFormatted
	}
	format := binary.LittleEndian.Uint64(sb[sbVersion:])
	if format < 1 || format > formatVersion {
		return nil, fmt.Errorf("%w: superblock format %d, this build reads 1..%d", ErrCorrupt, format, formatVersion)
	}
	countGen := binary.LittleEndian.Uint64(sb[sbCountGen:])
	s := &Store{
		pm:         pm,
		tableBase:  int64(binary.LittleEndian.Uint64(sb[sbTableOff:])),
		tableCap:   int64(binary.LittleEndian.Uint64(sb[sbTableCap:])),
		tableGen:   int64(countGen & 1),
		modelCount: int64(countGen >> 1),
		mindexBrk:  int64(binary.LittleEndian.Uint64(sb[sbMindexBrk:])),
		allocOff:   int64(binary.LittleEndian.Uint64(sb[sbAllocOff:])),
		deltaBrk:   int64(binary.LittleEndian.Uint64(sb[sbDeltaBrk:])),
	}
	if s.tableBase < superSize || s.tableCap < 0 || s.modelCount < 0 ||
		s.modelCount > s.tableCap ||
		s.tableCap > (pm.MetaSize()-s.tableBase)/(2*entrySize) ||
		s.allocOff <= 0 || s.allocOff > pm.MetaSize()-headerMin {
		return nil, fmt.Errorf("%w: implausible superblock", ErrCorrupt)
	}
	if s.deltaBrk == 0 {
		// Pre-delta image: the spare superblock word is zero, meaning an
		// empty digest region sitting at the allocation table.
		s.deltaBrk = s.allocOff
	}
	if s.deltaBrk < s.mindexBrk || s.deltaBrk > s.allocOff {
		return nil, fmt.Errorf("%w: implausible delta break", ErrCorrupt)
	}
	a, err := alloc.Open(pm, s.allocOff)
	if err != nil {
		return nil, err
	}
	s.alloc = a
	s.rebuildMIndexFree()
	s.rebuildDelta()
	if format < formatVersion {
		s.dropLegacyStamps()
	}
	return s, nil
}

// dropLegacyStamps upgrades a format-1 image in place: every version
// header's stamp is zeroed — a DONE version with stamp 0 is "stored
// without a stamp, nothing to check", restorable as it always was, and
// its slot's next checkpoint stamps it afresh — and only then does the
// superblock say format 2. A crash in between leaves a format-1 image
// with some stamps already gone, which the next Open finishes.
func (s *Store) dropLegacyStamps() {
	var b [8]byte
	for i := int64(0); i < s.modelCount; i++ {
		name, infoOff := s.entryAt(i)
		if name == "" {
			continue
		}
		m, err := s.loadMIndex(infoOff)
		if err != nil {
			continue // unreadable record: no header to trust
		}
		for slot := 0; slot < 2; slot++ {
			s.pm.WriteMeta(m.verOff(slot)+24, b[:])
			s.pm.Persist8(m.verOff(slot) + 24)
		}
	}
	binary.LittleEndian.PutUint64(b[:], formatVersion)
	s.pm.WriteMeta(sbVersion, b[:])
	s.pm.Persist8(sbVersion)
}

// rebuildMIndexFree reconstructs the dead-record free list from the gaps
// between live MIndex records in [mindexStart, mindexBrk). Best-effort:
// if any live record fails to decode the list stays empty, which only
// disables reuse (Open still succeeds exactly as before).
func (s *Store) rebuildMIndexFree() {
	s.mindexFree = nil
	type span struct{ off, end int64 }
	var live []span
	for i := int64(0); i < s.modelCount; i++ {
		name, infoOff := s.entryAt(i)
		if name == "" {
			continue
		}
		m, err := s.loadMIndex(infoOff)
		if err != nil {
			return
		}
		live = append(live, span{m.off, m.off + int64(mindexHdr) + int64(len(m.Tensors))*tensorRec})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].off < live[j].off })
	prev := s.mindexStart()
	for _, sp := range live {
		if sp.off > prev {
			s.mindexFree = append(s.mindexFree, alloc.Extent{Off: prev, Size: sp.off - prev})
		}
		if sp.end > prev {
			prev = sp.end
		}
	}
	if s.mindexBrk > prev {
		s.mindexFree = append(s.mindexFree, alloc.Extent{Off: prev, Size: s.mindexBrk - prev})
	}
}

// mindexStart is the first byte of the MIndex region (past both table
// generations).
func (s *Store) mindexStart() int64 {
	return s.tableBase + 2*s.tableCap*entrySize
}

// freeMIndexRange returns a dead record's bytes to the in-memory free
// list, keeping it sorted and coalesced.
func (s *Store) freeMIndexRange(off, size int64) {
	s.mindexFree = append(s.mindexFree, alloc.Extent{Off: off, Size: size})
	sort.Slice(s.mindexFree, func(i, j int) bool { return s.mindexFree[i].Off < s.mindexFree[j].Off })
	out := s.mindexFree[:1]
	for _, e := range s.mindexFree[1:] {
		last := &out[len(out)-1]
		if last.Off+last.Size == e.Off {
			last.Size += e.Size
		} else {
			out = append(out, e)
		}
	}
	s.mindexFree = out
}

// MIndexDead reports the bytes held in dead MIndex records — garbage the
// engine's capacity accounting charges against the metadata zone.
func (s *Store) MIndexDead() int64 {
	var sum int64
	for _, e := range s.mindexFree {
		sum += e.Size
	}
	return sum
}

// Allocator exposes the data-zone allocator (for space accounting and
// the repacker).
func (s *Store) Allocator() *alloc.Allocator { return s.alloc }

// PMem returns the underlying namespace.
func (s *Store) PMem() *pmem.Device { return s.pm }

// ModelCount reports the number of live table entries (tombstones
// excluded).
func (s *Store) ModelCount() int {
	n := 0
	for i := int64(0); i < s.modelCount; i++ {
		if name, _ := s.entryAt(i); name != "" {
			n++
		}
	}
	return n
}

// entryAt decodes table entry i; a tombstoned or corrupt entry returns
// ("", 0).
func (s *Store) entryAt(i int64) (string, int64) {
	raw := s.pm.MetaBytes(s.tableOff()+i*entrySize, entrySize)
	infoOff := int64(binary.LittleEndian.Uint64(raw))
	// Overflow-safe bounds check: infoOff+mindexHdr could wrap.
	if infoOff <= 0 || infoOff > s.pm.MetaSize()-mindexHdr {
		return "", 0
	}
	nameLen := int(binary.LittleEndian.Uint16(raw[8:]))
	if nameLen > nameMax {
		return "", 0
	}
	return string(raw[10 : 10+nameLen]), infoOff
}

// Names returns all live model names in table order.
func (s *Store) Names() []string {
	var out []string
	for i := int64(0); i < s.modelCount; i++ {
		if name, _ := s.entryAt(i); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// CreateModel allocates the full persistent structure for a model: an
// MIndex record plus two TensorData extents per tensor, and publishes
// it in the ModelTable. The entry is persisted before the table count,
// so a crash can never expose a half-written record.
//
// Admission is transactional: if any allocation fails part-way (data
// zone exhausted at the Nth slot, MIndex region full), every extent
// already claimed is freed before the error returns — no leaks for the
// caller's retry to trip over.
func (s *Store) CreateModel(name string, tensors []TensorMeta) (*Model, error) {
	if name == "" || len(name) > nameMax {
		return nil, fmt.Errorf("index: invalid model name %q", name)
	}
	if strings.ContainsRune(name, 0) {
		return nil, fmt.Errorf("index: model name contains NUL")
	}
	// The name alone decides: a live entry whose record is corrupt still
	// owns its name, and a scan of the table costs no MIndex decode.
	for i := int64(0); i < s.modelCount; i++ {
		if n, _ := s.entryAt(i); n == name {
			return nil, fmt.Errorf("%w: %s", ErrModelExists, name)
		}
	}
	if s.modelCount >= s.tableCap {
		return nil, ErrTableFull
	}
	// Validate everything before touching the allocator so most bad
	// registrations never need the rollback path.
	for _, tm := range tensors {
		if tm.Size <= 0 {
			return nil, fmt.Errorf("index: tensor %q has invalid size %d", tm.Name, tm.Size)
		}
		if len(tm.Dims) > 4 {
			return nil, fmt.Errorf("index: tensor %q has %d dims (max 4)", tm.Name, len(tm.Dims))
		}
	}

	m := &Model{s: s, Name: name, Tensors: tensors, PAddr: make([][2]int64, len(tensors))}

	// Allocate both version slots for every tensor, rolling back all
	// prior slots on failure.
	rollback := func() {
		for i := range m.PAddr {
			for v := 0; v < 2; v++ {
				if m.PAddr[i][v] != 0 {
					s.alloc.Free(m.PAddr[i][v])
					m.PAddr[i][v] = 0
				}
			}
		}
	}
	for i, tm := range tensors {
		for v := 0; v < 2; v++ {
			off, err := s.alloc.Allocate(tm.Size)
			if err != nil {
				rollback()
				return nil, fmt.Errorf("index: allocating TensorData for %q: %w", tm.Name, err)
			}
			m.PAddr[i][v] = off
		}
	}

	// Claim MIndex record space: first-fit a dead record's bytes, else
	// bump the break. Reuse is crash-safe for the same reason the append
	// is — nothing references the region until the table entry (written
	// last) publishes it.
	recLen := int64(mindexHdr) + int64(len(tensors))*tensorRec
	reused := false
	for i, e := range s.mindexFree {
		if e.Size < recLen {
			continue
		}
		m.off = e.Off
		if e.Size == recLen {
			s.mindexFree = append(s.mindexFree[:i], s.mindexFree[i+1:]...)
		} else {
			s.mindexFree[i] = alloc.Extent{Off: e.Off + recLen, Size: e.Size - recLen}
		}
		reused = true
		break
	}
	if !reused {
		m.off = s.mindexBrk
		if m.off+recLen > s.deltaBrk {
			rollback()
			return nil, fmt.Errorf("index: MIndex region exhausted: %w", alloc.ErrNoSpace)
		}
	}
	rec := make([]byte, recLen)
	binary.LittleEndian.PutUint32(rec[0:], mindexMagic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(tensors)))
	binary.LittleEndian.PutUint16(rec[8:], uint16(len(name)))
	copy(rec[10:10+nameMax], name)
	// Version headers start zeroed (StateEmpty).
	p := int64(mindexHdr)
	for i, tm := range tensors {
		tn := tm.Name
		if len(tn) > tensorName {
			tn = tn[:tensorName]
		}
		copy(rec[p:p+tensorName], tn)
		rec[p+tensorName] = byte(tm.DType)
		rec[p+tensorName+1] = byte(len(tm.Name)) // original length (capped display)
		rec[p+tensorName+2] = byte(len(tm.Dims))
		for di, dim := range tm.Dims {
			binary.LittleEndian.PutUint64(rec[p+tensorName+4+int64(di)*8:], uint64(dim))
		}
		binary.LittleEndian.PutUint64(rec[p+tensorName+36:], uint64(tm.Size))
		binary.LittleEndian.PutUint64(rec[p+tensorName+44:], uint64(m.PAddr[i][0]))
		binary.LittleEndian.PutUint64(rec[p+tensorName+52:], uint64(m.PAddr[i][1]))
		p += tensorRec
	}
	s.pm.WriteMeta(m.off, rec)
	s.pm.FlushMeta(m.off, recLen)

	if !reused {
		// Bump and persist the MIndex break.
		s.mindexBrk += recLen
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(s.mindexBrk))
		s.pm.WriteMeta(sbMindexBrk, b[:])
		s.pm.Persist8(sbMindexBrk)
	}

	// Publish: entry first, count last.
	entry := make([]byte, entrySize)
	binary.LittleEndian.PutUint64(entry, uint64(m.off))
	binary.LittleEndian.PutUint16(entry[8:], uint16(len(name)))
	copy(entry[10:], name)
	at := s.tableOff() + s.modelCount*entrySize
	s.pm.WriteMeta(at, entry)
	s.pm.FlushMeta(at, entrySize)
	s.modelCount++
	s.persistCountGen()
	return m, nil
}

// Lookup loads a model's MIndex by name.
func (s *Store) Lookup(name string) (*Model, error) {
	for i := int64(0); i < s.modelCount; i++ {
		n, infoOff := s.entryAt(i)
		if n == name {
			return s.loadMIndex(infoOff)
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNoModel, name)
}

// Models loads every live model.
func (s *Store) Models() ([]*Model, error) {
	var out []*Model
	for i := int64(0); i < s.modelCount; i++ {
		name, infoOff := s.entryAt(i)
		if name == "" {
			continue
		}
		m, err := s.loadMIndex(infoOff)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// DeleteModel drops a model's digest records, tombstones its table
// entry, then frees its TensorData extents — in that order, because a
// power failure can fall between any two persists. The tombstone (one
// failure-atomic persist) is the commit point. Before it the model must
// stay whole: losing a digest record only costs the next checkpoint a
// full pull, whereas freeing an extent first would leave a listed, DONE
// model pointing into the free list. After it nothing may outlive the
// model under its key: a later CreateModel can reuse this MIndex offset,
// and a stale table there would diff a new model against a dead one's
// content. The extents a crash strands after the tombstone are
// allocated but unreferenced, which store.Open's leak sweep reclaims.
// The MIndex record's bytes go on the in-memory dead list for the next
// CreateModel to reuse; its on-media content is untouched (no layout
// change versus pre-engine images).
func (s *Store) DeleteModel(name string) error {
	for i := int64(0); i < s.modelCount; i++ {
		n, infoOff := s.entryAt(i)
		if n != name {
			continue
		}
		m, err := s.loadMIndex(infoOff)
		if err != nil {
			return err
		}
		s.deltaDrop(m.off, 0)
		s.deltaDrop(m.off, 1)
		var z [8]byte
		at := s.tableOff() + i*entrySize
		s.pm.WriteMeta(at, z[:]) // infoOff = 0 tombstone
		s.pm.Persist8(at)
		s.freeMIndexRange(m.off, int64(mindexHdr)+int64(len(m.Tensors))*tensorRec)
		for _, pa := range m.PAddr {
			for v := 0; v < 2; v++ {
				if pa[v] == 0 {
					continue // slot already reclaimed by a repack pass
				}
				if err := s.alloc.Free(pa[v]); err != nil {
					return fmt.Errorf("index: freeing TensorData: %w", err)
				}
			}
		}
		return nil
	}
	return fmt.Errorf("%w: %s", ErrNoModel, name)
}

// CompactTable rewrites the ModelTable sorted by name with tombstones
// dropped — restoring the paper's sorted-array invariant (§III-D1). The
// rewrite is crash-atomic: live entries land in the inactive table
// generation, and one failure-atomic persist of the packed
// count|generation word switches over. A crash at any point leaves
// either the old or the new table fully visible.
func (s *Store) CompactTable() error {
	type liveEntry struct {
		name    string
		infoOff int64
	}
	var live []liveEntry
	for i := int64(0); i < s.modelCount; i++ {
		if name, infoOff := s.entryAt(i); name != "" {
			live = append(live, liveEntry{name, infoOff})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].name < live[j].name })

	newGen := 1 - s.tableGen
	newOff := s.tableBase + newGen*s.tableCap*entrySize
	buf := make([]byte, int64(len(live))*entrySize)
	for i, e := range live {
		p := buf[int64(i)*entrySize:]
		binary.LittleEndian.PutUint64(p, uint64(e.infoOff))
		binary.LittleEndian.PutUint16(p[8:], uint16(len(e.name)))
		copy(p[10:], e.name)
	}
	if len(buf) > 0 {
		s.pm.WriteMeta(newOff, buf)
		s.pm.FlushMeta(newOff, int64(len(buf)))
	}
	s.tableGen = newGen
	s.modelCount = int64(len(live))
	s.persistCountGen() // the atomic switch
	return nil
}

// TableSorted reports whether the live entries appear in name order
// (true after CompactTable; appends may break it again).
func (s *Store) TableSorted() bool {
	prev := ""
	for i := int64(0); i < s.modelCount; i++ {
		name, _ := s.entryAt(i)
		if name == "" {
			continue
		}
		if name < prev {
			return false
		}
		prev = name
	}
	return true
}

// loadMIndex decodes the MIndex record at off, validating every length
// and offset so a corrupt image yields ErrCorrupt rather than a panic.
func (s *Store) loadMIndex(off int64) (*Model, error) {
	if off < 0 || off > s.pm.MetaSize()-mindexHdr {
		return nil, fmt.Errorf("%w: MIndex offset %d outside metadata zone", ErrCorrupt, off)
	}
	hdr := s.pm.MetaBytes(off, mindexHdr)
	if binary.LittleEndian.Uint32(hdr) != mindexMagic {
		return nil, fmt.Errorf("%w: bad MIndex magic at %d", ErrCorrupt, off)
	}
	cnt := int64(binary.LittleEndian.Uint32(hdr[4:]))
	if cnt < 0 || cnt > (s.pm.MetaSize()-off-mindexHdr)/tensorRec {
		return nil, fmt.Errorf("%w: tensor count %d overflows metadata zone", ErrCorrupt, cnt)
	}
	nameLen := int(binary.LittleEndian.Uint16(hdr[8:]))
	if nameLen > nameMax {
		return nil, fmt.Errorf("%w: name length %d", ErrCorrupt, nameLen)
	}
	m := &Model{
		s:       s,
		off:     off,
		Name:    string(hdr[10 : 10+nameLen]),
		Tensors: make([]TensorMeta, cnt),
		PAddr:   make([][2]int64, cnt),
	}
	raw := s.pm.MetaBytes(off+mindexHdr, cnt*tensorRec)
	for i := int64(0); i < cnt; i++ {
		rec := raw[i*tensorRec:]
		name := rec[:tensorName]
		if z := strings.IndexByte(string(name), 0); z >= 0 {
			name = name[:z]
		}
		ndims := int(rec[tensorName+2])
		if ndims > 4 {
			return nil, fmt.Errorf("%w: tensor %d has %d dims", ErrCorrupt, i, ndims)
		}
		dims := make([]int64, ndims)
		for di := 0; di < ndims; di++ {
			dims[di] = int64(binary.LittleEndian.Uint64(rec[tensorName+4+di*8:]))
		}
		size := int64(binary.LittleEndian.Uint64(rec[tensorName+36:]))
		if size < 0 || size > s.pm.DataSize() {
			return nil, fmt.Errorf("%w: tensor %d size %d", ErrCorrupt, i, size)
		}
		m.Tensors[i] = TensorMeta{
			Name:  string(name),
			DType: DType(rec[tensorName]),
			Dims:  dims,
			Size:  size,
		}
		for v := 0; v < 2; v++ {
			paddr := int64(binary.LittleEndian.Uint64(rec[tensorName+44+v*8:]))
			if paddr < 0 || (paddr > 0 && paddr > s.pm.DataSize()-size) {
				return nil, fmt.Errorf("%w: tensor %d slot %d points outside the data zone", ErrCorrupt, i, v)
			}
			m.PAddr[i][v] = paddr
		}
	}
	return m, nil
}

// Model is a loaded MIndex: the second-level record of the index.
type Model struct {
	s   *Store
	off int64

	Name    string
	Tensors []TensorMeta
	// PAddr[i][v] is the data-zone offset of tensor i's TensorData in
	// version slot v — the persistent pointers of the paper's MIndex.
	PAddr [][2]int64
}

// InfoOff returns the MIndex record's metadata-zone offset (the value
// stored in the ModelTable).
func (m *Model) InfoOff() int64 { return m.off }

// TotalSize returns the model's payload bytes (one version).
func (m *Model) TotalSize() int64 {
	var sum int64
	for _, t := range m.Tensors {
		sum += t.Size
	}
	return sum
}

// Sizes returns the model's tensor sizes in registration order: the
// layout its digest vectors are cut from.
func (m *Model) Sizes() []int64 {
	sizes := make([]int64, len(m.Tensors))
	for i, t := range m.Tensors {
		sizes[i] = t.Size
	}
	return sizes
}

// Version is a decoded version header.
type Version struct {
	State     uint64
	Iteration uint64
	SavedAt   time.Time
	// CRC is the content stamp persisted with the DONE flag: 1<<32 |
	// CRC-32C of the slot's content, or zero when the version carries no
	// stamp (the SetDone path, or an image upgraded from format 1).
	CRC uint64
}

func (m *Model) verOff(slot int) int64 {
	return m.off + 8 + 2 + nameMax + 2 + int64(slot)*verHdrSize
}

// VersionHeader reads version slot 0 or 1.
func (m *Model) VersionHeader(slot int) Version {
	raw := m.s.pm.MetaBytes(m.verOff(slot), verHdrSize)
	return Version{
		State:     binary.LittleEndian.Uint64(raw[0:]),
		Iteration: binary.LittleEndian.Uint64(raw[8:]),
		SavedAt:   time.Unix(0, int64(binary.LittleEndian.Uint64(raw[16:]))),
		CRC:       binary.LittleEndian.Uint64(raw[24:]),
	}
}

// SetActive marks slot as receiving a new checkpoint at iteration. The
// state word is persisted atomically first so a crash mid-transfer
// leaves the slot visibly incomplete.
func (m *Model) SetActive(slot int, iteration uint64) {
	off := m.verOff(slot)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], StateActive)
	m.s.pm.WriteMeta(off, b[:])
	m.s.pm.Persist8(off)
	binary.LittleEndian.PutUint64(b[:], iteration)
	m.s.pm.WriteMeta(off+8, b[:])
	m.s.pm.Persist8(off + 8)
}

// SetDone marks slot as a complete, restorable checkpoint without an
// integrity stamp. Callers must have flushed the slot's TensorData
// first; the state word is the commit point (8-byte failure-atomic
// persist).
func (m *Model) SetDone(slot int, iteration uint64, savedAt time.Time) {
	m.SetDoneCRC(slot, iteration, savedAt, 0)
}

// SetDoneCRC is SetDone carrying the version's content fingerprint.
// The CRC is persisted before the state word so a DONE header always
// pairs with its stamp.
func (m *Model) SetDoneCRC(slot int, iteration uint64, savedAt time.Time, crc uint64) {
	off := m.verOff(slot)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], iteration)
	m.s.pm.WriteMeta(off+8, b[:])
	m.s.pm.Persist8(off + 8)
	binary.LittleEndian.PutUint64(b[:], uint64(savedAt.UnixNano()))
	m.s.pm.WriteMeta(off+16, b[:])
	m.s.pm.Persist8(off + 16)
	binary.LittleEndian.PutUint64(b[:], crc)
	m.s.pm.WriteMeta(off+24, b[:])
	m.s.pm.Persist8(off + 24)
	binary.LittleEndian.PutUint64(b[:], StateDone)
	m.s.pm.WriteMeta(off, b[:])
	m.s.pm.Persist8(off)
}

// LatestDone returns the slot holding the newest complete checkpoint.
func (m *Model) LatestDone() (slot int, v Version, ok bool) {
	v0, v1 := m.VersionHeader(0), m.VersionHeader(1)
	switch {
	case v0.State == StateDone && v1.State == StateDone:
		if v1.Iteration > v0.Iteration {
			return 1, v1, true
		}
		return 0, v0, true
	case v0.State == StateDone:
		return 0, v0, true
	case v1.State == StateDone:
		return 1, v1, true
	default:
		return 0, Version{}, false
	}
}

// TargetSlot returns the slot the next checkpoint should overwrite: the
// one that is not the latest done version.
func (m *Model) TargetSlot() int {
	if slot, _, ok := m.LatestDone(); ok {
		return 1 - slot
	}
	return 0
}

// TensorData returns the data-zone extent of tensor i in version slot v.
func (m *Model) TensorData(i, v int) alloc.Extent {
	return alloc.Extent{Off: m.PAddr[i][v], Size: m.Tensors[i].Size}
}

// SetPAddr repoints tensor i's version-v TensorData to a new data-zone
// offset and persists the pointer (used by the repacker and by slot
// re-allocation after repacking).
func (m *Model) SetPAddr(i, v int, off int64) {
	m.PAddr[i][v] = off
	at := m.off + mindexHdr + int64(i)*tensorRec + tensorName + 44 + int64(v)*8
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(off))
	m.s.pm.WriteMeta(at, b[:])
	m.s.pm.Persist8(at)
}

// ClearVersion retires slot v's digest record (a cleared slot holds no
// content to diff against), marks the slot empty, and then persists
// each of its tensor pointers as 0 — the offline repacker's release of
// an outdated or collapsed version, whose extents the caller frees
// after. Each step is one persist, and a crash between two leaves a
// slot no reader takes for a version.
func (m *Model) ClearVersion(v int) {
	m.s.deltaDrop(m.off, v)
	off := m.verOff(v)
	var b [8]byte // zero = StateEmpty
	m.s.pm.WriteMeta(off, b[:])
	m.s.pm.Persist8(off)
	for i := range m.Tensors {
		m.SetPAddr(i, v, 0)
	}
}

// HasSlot reports whether slot v still owns a TensorData extent: false
// once the repacker released it, true while a release a crash cut short
// left some pointers. Offset 0 is reserved: the allocator never places
// an extent there.
func (m *Model) HasSlot(v int) bool {
	for _, pa := range m.PAddr {
		if pa[v] != 0 {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Delta digest tables.
// ---------------------------------------------------------------------------

// deltaRecLen returns the on-media size of a record holding count
// digests.
func deltaRecLen(count int) int64 { return deltaHdr + int64(count)*8 + 8 }

// deltaCRC fingerprints a record's body words (everything past recLen
// and state, up to but excluding the trailing crc word).
func deltaCRC(body []byte) uint64 {
	h := fnv64aInit
	for _, b := range body {
		h = (h ^ uint64(b)) * fnv64aPrime
	}
	return h
}

// FNV-64a, inlined so record validation needs no allocation.
const (
	fnv64aInit  = uint64(14695981039346656037)
	fnv64aPrime = uint64(1099511628211)
)

// rebuildDelta reconstructs the digest-record map and dead-record free
// list by walking the packed region [deltaBrk, allocOff). Best-effort:
// an implausible record length abandons the walk, which only disables
// delta lookups past that point (checkpoints fall back to full).
func (s *Store) rebuildDelta() {
	s.deltaIdx = map[deltaKey]int64{}
	s.deltaFree = map[int64][]int64{}
	off := s.deltaBrk
	for off+deltaHdr <= s.allocOff {
		raw := s.pm.MetaBytes(off, deltaHdr)
		recLen := int64(binary.LittleEndian.Uint64(raw[0:]))
		if recLen < deltaRecLen(0) || recLen%8 != 0 || off+recLen > s.allocOff {
			return
		}
		state := binary.LittleEndian.Uint64(raw[8:])
		switch state {
		case deltaValid, deltaInvalid:
			key := deltaKey{
				infoOff: int64(binary.LittleEndian.Uint64(raw[16:])),
				slot:    int(binary.LittleEndian.Uint64(raw[24:])),
			}
			s.deltaIdx[key] = off
		case deltaDead:
			s.deltaFree[recLen] = append(s.deltaFree[recLen], off)
		default:
			return
		}
		off += recLen
	}
}

// DeltaBytes reports the metadata-zone space held by the digest-table
// region (live and dead records).
func (s *Store) DeltaBytes() int64 { return s.allocOff - s.deltaBrk }

// DeltaPut persists slot's digest table for model m. The write is
// crash-safe at every boundary: a fresh record becomes visible only when
// the region break is persisted after the record is fully flushed, and
// an in-place rewrite toggles the record invalid first, so a crash
// leaves either the old table, the new table, or a visibly invalid
// record (which DeltaGet treats as missing — the next checkpoint runs
// full). Running out of metadata space is reported as
// alloc.ErrNoSpace-wrapped so callers can degrade to full checkpoints
// without failing the request.
func (s *Store) DeltaPut(m *Model, slot int, t *delta.Table) error {
	if slot != 0 && slot != 1 {
		return fmt.Errorf("index: invalid version slot %d", slot)
	}
	recLen := deltaRecLen(len(t.Digests))
	key := deltaKey{infoOff: m.off, slot: slot}

	// An existing record of a different size cannot be rewritten in
	// place: retire it and allocate fresh.
	if off, ok := s.deltaIdx[key]; ok {
		if int64(binary.LittleEndian.Uint64(s.pm.MetaBytes(off, 8))) != recLen {
			s.deltaDrop(m.off, slot)
		}
	}

	body := make([]byte, recLen-16)
	binary.LittleEndian.PutUint64(body[0:], uint64(m.off))
	binary.LittleEndian.PutUint64(body[8:], uint64(slot))
	binary.LittleEndian.PutUint64(body[16:], uint64(t.BlockBytes))
	binary.LittleEndian.PutUint64(body[24:], t.Iteration)
	binary.LittleEndian.PutUint64(body[32:], t.Layout)
	binary.LittleEndian.PutUint64(body[40:], uint64(len(t.Digests)))
	for i, d := range t.Digests {
		binary.LittleEndian.PutUint64(body[48+i*8:], d)
	}
	binary.LittleEndian.PutUint64(body[len(body)-8:], deltaCRC(body[:len(body)-8]))

	// Rewrite in place — the slot's own record, else a dead record of the
	// exact size: invalidate, write the body, revalidate.
	off, ok := s.deltaIdx[key]
	if free := s.deltaFree[recLen]; !ok && len(free) > 0 {
		off, ok = free[len(free)-1], true
		s.deltaFree[recLen] = free[:len(free)-1]
	}
	var b [8]byte
	if ok {
		binary.LittleEndian.PutUint64(b[:], deltaInvalid)
		s.pm.WriteMeta(off+8, b[:])
		s.pm.Persist8(off + 8)
		s.pm.WriteMeta(off+16, body)
		s.pm.FlushMeta(off+16, int64(len(body)))
		binary.LittleEndian.PutUint64(b[:], deltaValid)
		s.pm.WriteMeta(off+8, b[:])
		s.pm.Persist8(off + 8)
		s.deltaIdx[key] = off
		return nil
	}

	// Claim fresh space below the break.
	off = s.deltaBrk - recLen
	if off < s.mindexBrk {
		return fmt.Errorf("index: delta region exhausted: %w", alloc.ErrNoSpace)
	}
	rec := make([]byte, recLen)
	binary.LittleEndian.PutUint64(rec[0:], uint64(recLen))
	binary.LittleEndian.PutUint64(rec[8:], deltaValid)
	copy(rec[16:], body)
	s.pm.WriteMeta(off, rec)
	s.pm.FlushMeta(off, recLen)
	// Publish: the break persist makes the record visible atomically.
	s.deltaBrk = off
	binary.LittleEndian.PutUint64(b[:], uint64(s.deltaBrk))
	s.pm.WriteMeta(sbDeltaBrk, b[:])
	s.pm.Persist8(sbDeltaBrk)
	s.deltaIdx[key] = off
	return nil
}

// DeltaGet loads slot's persisted digest table for model m, or reports
// a miss for anything not fully valid: no record, an in-flight rewrite
// that never revalidated, or a body that fails its CRC.
func (s *Store) DeltaGet(m *Model, slot int) (*delta.Table, bool) {
	off, ok := s.deltaIdx[deltaKey{infoOff: m.off, slot: slot}]
	if !ok {
		return nil, false
	}
	hdr := s.pm.MetaBytes(off, deltaHdr)
	recLen := int64(binary.LittleEndian.Uint64(hdr[0:]))
	if binary.LittleEndian.Uint64(hdr[8:]) != deltaValid {
		return nil, false
	}
	count := int64(binary.LittleEndian.Uint64(hdr[56:]))
	if count < 0 || deltaRecLen(int(count)) != recLen {
		return nil, false
	}
	body := s.pm.MetaBytes(off+16, recLen-16)
	if deltaCRC(body[:len(body)-8]) != binary.LittleEndian.Uint64(body[len(body)-8:]) {
		return nil, false
	}
	t := &delta.Table{
		BlockBytes: int64(binary.LittleEndian.Uint64(hdr[32:])),
		Iteration:  binary.LittleEndian.Uint64(hdr[40:]),
		Layout:     binary.LittleEndian.Uint64(hdr[48:]),
		Digests:    make([]uint64, count),
	}
	for i := range t.Digests {
		t.Digests[i] = binary.LittleEndian.Uint64(body[48+i*8:])
	}
	return t, true
}

// Digests returns slot's persisted digest table when it describes the
// DONE version there, laid out at block size block (0: the table's
// own); otherwise nil — no table, a stale one, or another layout.
func (m *Model) Digests(slot int, block int64) *delta.Table {
	h := m.VersionHeader(slot)
	if h.State != StateDone {
		return nil
	}
	t, ok := m.s.DeltaGet(m, slot)
	if !ok || t.Iteration != h.Iteration {
		return nil
	}
	if block == 0 {
		block = t.BlockBytes
	}
	if sizes := m.Sizes(); !t.Matches(block, delta.LayoutHash(sizes, block), delta.BlockCount(sizes, block)) {
		return nil
	}
	return t
}

// DeltaDrop retires slot's digest record for model m (no-op when none
// exists). Exposed for the daemon's delete path; DeleteModel and
// ClearVersion call it internally.
func (m *Model) DeltaDrop(slot int) { m.s.deltaDrop(m.off, slot) }

func (s *Store) deltaDrop(infoOff int64, slot int) {
	key := deltaKey{infoOff: infoOff, slot: slot}
	off, ok := s.deltaIdx[key]
	if !ok {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], deltaDead)
	s.pm.WriteMeta(off+8, b[:])
	s.pm.Persist8(off + 8)
	delete(s.deltaIdx, key)
	recLen := int64(binary.LittleEndian.Uint64(s.pm.MetaBytes(off, 8)))
	s.deltaFree[recLen] = append(s.deltaFree[recLen], off)
}
