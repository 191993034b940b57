package gpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/portus-sys/portus/internal/memdev"
	"github.com/portus-sys/portus/internal/model"
)

// digestBlocks are the block sizes the digest cache is checked at: one
// below the write tracker's granule, one equal to it, and one that is
// not a multiple of it.
var digestBlocks = []int64{4 << 10, 64 << 10, 100 << 10}

// digestRig is one GPU holding three models at unaligned offsets, plus
// a second device of the same mode that writes copy from, and a second
// GPU holding a twin of each model that restores copy from.
type digestRig struct {
	mem, aux *memdev.Device
	models   []*PlacedModel
	twins    []*PlacedModel

	// seeded is the model the last step's restore seeded, or -1;
	// seeds and refusals count the restores either way.
	seeded          int
	seeds, refusals int
}

const digestRigBytes = 2 << 20

func newDigestRig(t testing.TB, materialized bool) *digestRig {
	t.Helper()
	g, h := New("g", digestRigBytes, materialized), New("h", digestRigBytes, materialized)
	r := &digestRig{mem: g.Mem(), aux: memdev.New("aux", memdev.DRAM, digestRigBytes, materialized), seeded: -1}
	for off := int64(0); off < digestRigBytes; off += 96 << 10 {
		FillRegion(r.aux, off, min(96<<10, digestRigBytes-off), uint64(off)+1)
	}
	for i, pad := range []int64{3, 70001, 4093} {
		if _, err := r.mem.Alloc(pad); err != nil {
			t.Fatal(err)
		}
		spec := model.GPT(fmt.Sprintf("m%d", i), 1, int64(16+8*i), 64, 0)
		p, err := Place(g, spec)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := Place(h, spec)
		if err != nil {
			t.Fatal(err)
		}
		r.models, r.twins = append(r.models, p), append(r.twins, twin)
	}
	return r
}

// restore is a restore's push as the client sees it: model i's twin
// takes a sparse update, every tensor of the twin is copied into model
// i in pieces of up to piece bytes, and the twin's reference digests
// seed the cache at every block size — only when the GPU took exactly
// one model's worth of writes meanwhile, the guard the client applies.
// With stray set, one more write lands inside model i before the clock
// is read, and the guard must refuse the seed.
func (r *digestRig) restore(i int, iteration uint64, piece int64, stray bool) {
	r.refusals++
	p, twin := r.models[i], r.twins[i]
	twin.ApplySparseUpdate(iteration, 4<<10, 0.3)
	_, before := r.mem.WriteClock()
	for k, tm := range p.Spec.Tensors {
		for off := int64(0); off < tm.Size; off += piece {
			memdev.Copy(r.mem, p.Offs[k]+off, twin.GPU.Mem(), twin.Offs[k]+off, min(piece, tm.Size-off))
		}
	}
	if stray {
		k := int(iteration) % len(p.Offs)
		at := p.Offs[k] + int64(iteration)%(p.Spec.Tensors[k].Size-1)
		if r.mem.Materialized() {
			r.mem.Write(at, []byte{byte(iteration) | 1, 0xA5})
		} else {
			r.mem.WriteStamp(at, 2, iteration<<16|0xA5)
		}
	}
	gen, after := r.mem.WriteClock()
	if after-before != p.Spec.TotalSize() {
		return
	}
	for _, block := range digestBlocks {
		if !p.SeedDigests(block, twin.BlockDigests(block), gen) {
			panic("a vector of the layout's length was refused")
		}
	}
	r.seeded, r.seeds, r.refusals = i, r.seeds+1, r.refusals-1
}

// opReader decodes a write program: little-endian fields read from a
// byte string, zero once it runs out.
type opReader struct{ b []byte }

func (o *opReader) u(n int) uint64 {
	var buf [8]byte
	k := copy(buf[:n], o.b)
	o.b = o.b[k:]
	return binary.LittleEndian.Uint64(buf[:])
}

// step applies the next write of the program to the rig's GPU memory,
// through one of memdev's mutators, a model update (which uses them) or
// a restore that seeds the cache, and reports false once the program is
// spent. Ranges span the models,
// the padding between them and some bytes past the allocation
// watermark, and are up to 160 KiB long.
func (r *digestRig) step(o *opReader) bool {
	if len(o.b) == 0 {
		return false
	}
	op := o.u(1)
	span := r.mem.Allocated() + 64<<10
	off := int64(o.u(3)) % span
	n := 1 + int64(o.u(3))%(160<<10)
	src := int64(o.u(3)) % (digestRigBytes - n)
	seed := o.u(2) + 1
	mat := r.mem.Materialized()
	r.seeded = -1
	switch op % 10 {
	case 0:
		if mat {
			r.mem.Write(off, Pattern(n, seed))
		} else {
			r.mem.WriteStamp(off, n, seed)
		}
	case 1:
		if mat {
			if err := r.mem.StreamFrom(bytes.NewReader(Pattern(n, seed)), off, n); err != nil {
				panic(err)
			}
		} else {
			r.mem.WriteStamp(off, n, seed<<8)
		}
	case 2:
		memdev.Copy(r.mem, off, r.aux, src, n)
	case 3:
		memdev.Copy(r.mem, off, r.mem, src%span, min(n, span-src%span))
	case 4:
		if mat {
			memdev.CopyCRC(r.mem, off, r.aux, src, n, 0)
			memdev.CopyCRC(nil, 0, r.mem, off, n, 0) // reads only
		} else {
			memdev.Copy(r.mem, off, r.aux, src, n)
		}
	case 5:
		r.mem.WriteStamp(off, n, seed) // a no-op on a materialized device
	case 6:
		var batch []memdev.StampRegion
		for at, k := off, 0; k < 4 && at+n <= span; at, k = at+n+int64(seed%5000), k+1 {
			batch = append(batch, memdev.StampRegion{Off: at, N: n, Stamp: seed + uint64(k)})
		}
		r.mem.WriteStampBatch(batch)
	case 7:
		p := r.models[int(seed)%len(r.models)]
		if seed%4 == 0 {
			p.ApplyUpdate(seed)
		} else {
			p.ApplySparseUpdate(seed, 4<<10, 0.2)
		}
	case 8, 9:
		r.restore(int(seed)%len(r.models), seed, 1+int64(src)%(200<<10), op%10 == 9)
	}
	return true
}

// check fails unless every model's cached digests equal the
// from-scratch reference at every block size, and a model the step's
// restore seeded has nothing left to hash.
func (r *digestRig) check(t testing.TB, step int) {
	t.Helper()
	for i, p := range r.models {
		for _, block := range digestBlocks {
			got, pass := p.Digests(block)
			if i == r.seeded && pass.Hashed != 0 {
				t.Fatalf("step %d, %s at %d B blocks: a seeded restore left %d blocks to hash", step, p.Spec.Name, block, pass.Hashed)
			}
			want := p.BlockDigests(block)
			if pass.Blocks != len(want) || !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("step %d, %s at %d B blocks: cached digests differ from BlockDigests at block %d of %d (%d blocks reported)",
					step, p.Spec.Name, block, i, len(want), pass.Blocks)
			}
		}
	}
}

// runDigestProgram checks the cache after every step of prog.
func runDigestProgram(t testing.TB, materialized bool, prog []byte) *digestRig {
	r := newDigestRig(t, materialized)
	r.check(t, 0)
	o := &opReader{b: prog}
	for i := 1; r.step(o); i++ {
		r.check(t, i)
	}
	return r
}

// TestDigestsMatchReferenceProperty drives seeded random writes through
// every memdev mutator, in both modes, into a device holding three
// models at unaligned offsets — among them restores that seed the cache,
// some with a stray write inside the restore's window — and after each
// step requires the cached digests of every model at every block size
// to equal BlockDigests.
func TestDigestsMatchReferenceProperty(t *testing.T) {
	for _, materialized := range []bool{true, false} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("materialized=%v/seed=%d", materialized, seed), func(t *testing.T) {
				prog := make([]byte, 12*120) // 120 steps of 12 bytes
				rand.New(rand.NewSource(seed)).Read(prog)
				if r := runDigestProgram(t, materialized, prog); r.seeds == 0 || r.refusals == 0 {
					t.Fatalf("%d restores seeded and %d were refused; the program must exercise both", r.seeds, r.refusals)
				}
			})
		}
	}
}

// FuzzDigests: cached digests equal BlockDigests after fuzzed writes.
func FuzzDigests(f *testing.F) {
	f.Add([]byte{}, true)
	for op := byte(0); op < 10; op++ {
		f.Add([]byte{op, 0x10, 0x20, 0x01, 0xff, 0xff, 0, 0, 0, 0, 7, 0}, true)
		f.Add([]byte{op, 0x10, 0x20, 0x01, 0xff, 0xff, 0, 0, 0, 0, 7, 0}, false)
	}
	f.Fuzz(func(t *testing.T, prog []byte, materialized bool) {
		runDigestProgram(t, materialized, prog[:min(len(prog), 12*32)])
	})
}

// TestDigestsHashOnlyWrittenBlocks: a call with nothing written since
// the last hashes nothing, a write hashes only the blocks its granule
// overlaps, and the reference passes still hash every block.
func TestDigestsHashOnlyWrittenBlocks(t *testing.T) {
	const block = 4 << 10
	r := newDigestRig(t, true)
	p := r.models[2]
	all := len(p.BlockDigests(block))
	if _, pass := p.Digests(block); pass.Hashed != all || pass.Blocks != all {
		t.Fatalf("first call hashed %d of %d blocks, want all %d", pass.Hashed, pass.Blocks, all)
	}
	if _, pass := p.Digests(block); pass.Hashed != 0 || pass.HashedBytes != 0 {
		t.Fatalf("a call with nothing written hashed %d blocks, %d B", pass.Hashed, pass.HashedBytes)
	}
	// One byte in the middle of the largest tensor (position embeddings)
	// dirties its one granule: at most 16 4 KiB blocks.
	r.mem.Write(p.Offs[1]+100<<10, []byte{1})
	got, pass := p.Digests(block)
	if pass.Hashed == 0 || pass.Hashed > memdev.TrackGranule/block+1 {
		t.Fatalf("a one-byte write rehashed %d blocks", pass.Hashed)
	}
	if !slices.Equal(got, p.BlockDigests(block)) {
		t.Fatal("cached digests miss the one-byte write")
	}
	if bad := p.VerifyDigests(block, got); bad != -1 {
		t.Fatalf("VerifyDigests rejects block %d", bad)
	}
}

// TestDigestsConcurrentCallers is the router's replica shape: two
// callers digest one model while a writer updates it. Once the writer
// stops, the next call equals BlockDigests, and of two concurrent calls
// over an unchanged model the second hashes nothing.
func TestDigestsConcurrentCallers(t *testing.T) {
	const block = 64 << 10
	r := newDigestRig(t, true)
	p := r.models[1]
	stop := make(chan struct{})
	var writer, callers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for it := uint64(1); ; it++ {
			select {
			case <-stop:
				return
			default:
			}
			p.ApplySparseUpdate(it, 4<<10, 0.1)
		}
	}()
	for range 2 {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for range 40 {
				if v, pass := p.Digests(block); len(v) != pass.Blocks {
					t.Errorf("vector of %d for %d blocks", len(v), pass.Blocks)
					return
				}
			}
		}()
	}
	callers.Wait()
	close(stop)
	writer.Wait()
	if got, _ := p.Digests(block); !slices.Equal(got, p.BlockDigests(block)) {
		t.Fatal("after the writer stopped, cached digests differ from BlockDigests")
	}
	var passes [2]DigestPass
	for i := range passes {
		callers.Add(1)
		go func() {
			defer callers.Done()
			_, passes[i] = p.Digests(block)
		}()
	}
	callers.Wait()
	if passes[0].Hashed != 0 || passes[1].Hashed != 0 {
		t.Fatalf("concurrent calls over an unchanged model hashed %d and %d blocks", passes[0].Hashed, passes[1].Hashed)
	}
}

// TestDigestsVectorIsCallersOwn: a returned vector is a copy. Mutating
// it, or calling again after a write, changes neither a vector handed
// out before nor what later calls return.
func TestDigestsVectorIsCallersOwn(t *testing.T) {
	const block = 64 << 10
	for _, materialized := range []bool{true, false} {
		r := newDigestRig(t, materialized)
		p := r.models[0]
		sent, _ := p.Digests(block)
		kept := slices.Clone(sent)
		again, _ := p.Digests(block)
		for i := range again {
			again[i] = ^again[i]
		}
		p.ApplySparseUpdate(1, 4<<10, 0.5)
		got, _ := p.Digests(block)
		if !slices.Equal(sent, kept) {
			t.Fatalf("materialized=%v: a vector already handed out changed", materialized)
		}
		if !slices.Equal(got, p.BlockDigests(block)) {
			t.Fatalf("materialized=%v: mutating a returned vector corrupted the cache", materialized)
		}
		if slices.Equal(got, kept) {
			t.Fatalf("materialized=%v: a 50%% sparse update left every digest unchanged", materialized)
		}
	}
}
