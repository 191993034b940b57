package pmem

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
)

func newTestDevice(materialized bool) *Device {
	return New(Config{Name: "pmem0", DataSize: 1 << 20, MetaSize: 4096, Materialized: materialized})
}

func TestDefaults(t *testing.T) {
	d := New(Config{Name: "p", DataSize: 1024})
	if d.Mode() != Devdax {
		t.Errorf("default mode = %v, want devdax", d.Mode())
	}
	if d.MetaSize() != 16<<20 {
		t.Errorf("default meta size = %d, want 16MiB", d.MetaSize())
	}
	if Devdax.String() != "devdax" || Fsdax.String() != "fsdax" {
		t.Error("mode names wrong")
	}
}

func TestUnflushedWriteLostOnCrash(t *testing.T) {
	d := newTestDevice(true)
	d.WriteMeta(0, []byte("unflushed"))
	d.Crash()
	got := d.MetaBytes(0, 9)
	if !bytes.Equal(got, make([]byte, 9)) {
		t.Fatalf("unflushed write survived crash: %q", got)
	}
	if d.CrashCount() != 1 {
		t.Fatalf("CrashCount = %d", d.CrashCount())
	}
}

func TestFlushedWriteSurvivesCrash(t *testing.T) {
	d := newTestDevice(true)
	d.WriteMeta(10, []byte("durable"))
	d.FlushMeta(10, 7)
	d.WriteMeta(100, []byte("volatile"))
	d.Crash()
	if got := d.MetaBytes(10, 7); !bytes.Equal(got, []byte("durable")) {
		t.Fatalf("flushed write lost: %q", got)
	}
	if got := d.MetaBytes(100, 8); !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("unflushed write survived: %q", got)
	}
}

// TestFailAfterGoesDarkUntilCrash: an armed device lets exactly k
// persists of any kind through, keeps counting and keeps serving its
// volatile image after that, and Crash both reverts and disarms it.
func TestFailAfterGoesDarkUntilCrash(t *testing.T) {
	d := newTestDevice(true)
	d.FailAfter(2)
	d.WriteMeta(0, []byte("one"))
	d.FlushMeta(0, 3)
	d.Data().Write(0, []byte("two"))
	d.FlushData(0, 3)
	if d.Dark() {
		t.Fatal("dark with persists still in the budget")
	}
	d.WriteMeta(8, []byte{3, 3, 3, 3, 3, 3, 3, 3})
	d.Persist8(8)
	if !d.Dark() {
		t.Fatal("not dark after the budget ran out")
	}
	if got := d.MetaFlushOps() + d.DataFlushOps(); got != 3 {
		t.Fatalf("counted %d persists, want 3 (lost ones count too)", got)
	}
	if got := d.MetaBytes(8, 1); got[0] != 3 {
		t.Fatal("a dark device must keep serving its volatile image")
	}
	d.Crash()
	if d.Dark() {
		t.Fatal("Crash did not disarm")
	}
	if got := d.MetaBytes(0, 3); !bytes.Equal(got, []byte("one")) {
		t.Fatalf("persist 1 of 2 lost: %q", got)
	}
	if got := d.Data().Bytes(0, 3); !bytes.Equal(got, []byte("two")) {
		t.Fatalf("persist 2 of 2 lost: %q", got)
	}
	if got := d.MetaBytes(8, 8); !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("persist past the budget survived: %v", got)
	}
	d.WriteMeta(8, []byte{4, 4, 4, 4, 4, 4, 4, 4})
	d.Persist8(8)
	d.Crash()
	if got := d.MetaBytes(8, 1); got[0] != 4 {
		t.Fatal("device still losing persists after Crash")
	}
}

// TestFlushDataCRCIsOnePersist: a flush that stamps persists what
// FlushData persists, as one persist operation, and continues the CRC
// over the live bytes — also when the persist is lost, so the stamp
// never depends on whether the power held.
func TestFlushDataCRCIsOnePersist(t *testing.T) {
	d := newTestDevice(true)
	d.Data().Write(0, []byte("stamped flush"))
	table := crc32.MakeTable(crc32.Castagnoli)
	want := crc32.Checksum([]byte("stamped flush"), table)
	var crc uint32
	d.FlushDataCRC(0, 13, &crc)
	if crc != want || d.DataFlushOps() != 1 {
		t.Fatalf("CRC %08x after %d persists, want %08x after 1", crc, d.DataFlushOps(), want)
	}
	d.Data().Write(0, []byte("lost"))
	want = crc32.Checksum([]byte("lost"), table)
	d.FailAfter(0)
	crc = 0
	d.FlushDataCRC(0, 4, &crc)
	if crc != want || d.DataFlushOps() != 2 {
		t.Fatalf("lost persist: CRC %08x after %d persists, want %08x after 2", crc, d.DataFlushOps(), want)
	}
	d.Crash()
	if got := d.Data().Bytes(0, 13); string(got) != "stamped flush" {
		t.Fatalf("durable image holds %q", got)
	}
}

func TestPersist8Atomicity(t *testing.T) {
	d := newTestDevice(true)
	d.WriteMeta(64, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	d.Persist8(64)
	d.WriteMeta(64, []byte{9, 9, 9, 9, 9, 9, 9, 9}) // not persisted
	d.Crash()
	if got := d.MetaBytes(64, 8); !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("Persist8 state lost: %v", got)
	}
}

func TestDataZoneCrashSemanticsMaterialized(t *testing.T) {
	d := newTestDevice(true)
	d.Data().Write(0, []byte("tensor-v1"))
	d.FlushData(0, 9)
	d.Data().Write(0, []byte("tensor-v2"))
	d.Crash()
	if got := d.Data().Bytes(0, 9); !bytes.Equal(got, []byte("tensor-v1")) {
		t.Fatalf("data zone after crash: %q", got)
	}
}

func TestDataZoneCrashSemanticsVirtual(t *testing.T) {
	d := newTestDevice(false)
	d.Data().WriteStamp(0, 4096, 111)
	d.FlushData(0, 4096)
	d.Data().WriteStamp(0, 4096, 222)
	d.Crash()
	if got := d.Data().StampOf(0, 4096); got != 111 {
		t.Fatalf("data stamp after crash = %d, want 111", got)
	}
}

func TestImageRoundTripMaterialized(t *testing.T) {
	d := newTestDevice(true)
	d.WriteMeta(0, []byte("index!"))
	d.FlushMeta(0, 6)
	d.Data().Write(128, []byte("payload"))
	d.FlushData(128, 7)

	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadImage("copy", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.MetaBytes(0, 6), []byte("index!")) {
		t.Fatal("meta zone lost in image round trip")
	}
	if !bytes.Equal(got.Data().Bytes(128, 7), []byte("payload")) {
		t.Fatal("data zone lost in image round trip")
	}
	// Loaded state must be durable.
	got.Crash()
	if !bytes.Equal(got.Data().Bytes(128, 7), []byte("payload")) {
		t.Fatal("loaded image not durable")
	}
}

func TestImageRoundTripVirtual(t *testing.T) {
	d := newTestDevice(false)
	d.Data().WriteStamp(4096, 8192, 0xabc)
	d.FlushData(4096, 8192)

	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadImage("copy", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Materialized() {
		t.Fatal("virtual image loaded as materialized")
	}
	if s := got.Data().StampOf(4096, 8192); s != 0xabc {
		t.Fatalf("stamp after image round trip = %#x, want 0xabc", s)
	}
}

func TestImageOnlyContainsDurableState(t *testing.T) {
	d := newTestDevice(true)
	d.WriteMeta(0, []byte("volatile"))
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadImage("copy", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.MetaBytes(0, 8), make([]byte, 8)) {
		t.Fatal("image contained unflushed state")
	}
}

func TestImageFileRoundTrip(t *testing.T) {
	d := newTestDevice(true)
	d.WriteMeta(0, []byte("hello"))
	d.FlushMeta(0, 5)
	path := t.TempDir() + "/pm.img"
	if err := d.SaveImageFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadImageFile("copy", path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.MetaBytes(0, 5), []byte("hello")) {
		t.Fatal("file image round trip lost meta")
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	if _, err := LoadImage("x", bytes.NewReader([]byte("not an image at all........"))); err == nil {
		t.Fatal("LoadImage accepted garbage")
	}
}

// TestImageRoundTripByteIdentical: the image is header | meta zone | data
// zone exactly as the durable devices hold them, a loaded namespace
// equals the saved one zone for zone, and saving it again reproduces the
// image byte for byte.
func TestImageRoundTripByteIdentical(t *testing.T) {
	d := New(Config{Name: "pm", DataSize: 1<<20 + 4099, MetaSize: 300<<10 + 7, Materialized: true})
	rng := rand.New(rand.NewSource(1))
	meta, data := make([]byte, d.MetaSize()), make([]byte, d.DataSize())
	rng.Read(meta)
	rng.Read(data)
	d.WriteMeta(0, meta)
	d.FlushMeta(0, d.MetaSize())
	d.Data().Write(0, data)
	d.FlushData(0, d.DataSize())
	d.Data().Write(100, []byte("volatile: not in the image"))

	var img bytes.Buffer
	if err := d.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), img.Bytes()...)
	if body := saved[len(saved)-len(meta)-len(data):]; !bytes.Equal(body[:len(meta)], meta) || !bytes.Equal(body[len(meta):], data) {
		t.Fatal("image body is not the durable meta zone followed by the durable data zone")
	}
	got, err := LoadImage("copy", &img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.MetaBytes(0, got.MetaSize()), meta) || !bytes.Equal(got.Data().Bytes(0, got.DataSize()), data) {
		t.Fatal("loaded namespace differs from the saved one")
	}
	var again bytes.Buffer
	if err := got.SaveImage(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatal("re-saving a loaded image changed it")
	}
	if _, err := LoadImage("torn", bytes.NewReader(saved[:len(saved)-1])); err == nil {
		t.Fatal("an image one byte short loaded")
	}
}

// TestCrashAndFlushMaterializeNothing: reverting a 64 MiB namespace to
// its durable image, and flushing into it, copy zone to zone — neither
// allocates a temporary the size of what it moves.
func TestCrashAndFlushMaterializeNothing(t *testing.T) {
	const size = 64 << 20
	d := New(Config{Name: "pm", DataSize: size, Materialized: true})
	d.Data().Write(size-8, []byte("durable!"))
	d.FlushData(0, size)
	d.Data().Write(size-8, []byte("volatile"))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.Crash()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Crash on a 64 MiB namespace allocated %d bytes, want < 1 MiB", got)
	}
	if got := d.Data().Bytes(size-8, 8); string(got) != "durable!" {
		t.Fatalf("after Crash the zone holds %q", got)
	}
	if n := testing.AllocsPerRun(10, func() {
		d.FlushData(0, size/4)
		var crc uint32
		d.FlushDataCRC(0, size/4, &crc)
		d.FlushMeta(0, 4096)
		d.Persist8(64)
	}); n != 0 {
		t.Fatalf("flushing allocates %v objects per run", n)
	}
}

// BenchmarkFlushAndStamp persists and stamps an 88 MiB range — the
// size of the bandwidth-bound benchmark model — in two passes
// (FlushData, then HashTo over the live bytes: the stamp re-reads the
// range from memory) and in one (FlushDataCRC: each 256 KiB piece is
// hashed straight after its copy, from cache).
func BenchmarkFlushAndStamp(b *testing.B) {
	const n = 88 << 20
	d := New(Config{Name: "pm", DataSize: n, MetaSize: 4096, Materialized: true})
	p := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(p)
	d.Data().Write(0, p)
	table := crc32.MakeTable(crc32.Castagnoli)
	b.Run("two-pass", func(b *testing.B) {
		b.SetBytes(n)
		b.ReportAllocs()
		h := crc32.New(table)
		for i := 0; i < b.N; i++ {
			d.FlushData(0, n)
			h.Reset()
			d.Data().HashTo(h, 0, n)
			stamp = h.Sum32()
		}
	})
	b.Run("one-pass", func(b *testing.B) {
		b.SetBytes(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var crc uint32
			d.FlushDataCRC(0, n, &crc)
			stamp = crc
		}
	})
}

// stamp keeps the benchmarked stamps live.
var stamp uint32
