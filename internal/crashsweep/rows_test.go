package crashsweep

import (
	"bytes"
	"reflect"

	"github.com/portus-sys/portus/internal/delta"
	"github.com/portus-sys/portus/internal/index"
	"github.com/portus-sys/portus/internal/serialize"
	"github.com/portus-sys/portus/internal/wire"
)

// sparse is the fraction of blocks a sparse update rewrites: enough
// clean ones that the daemon takes the delta path (asserted by the
// delta row's dry run).
const sparse = 0.2

var rows = []row{
	{
		name: "register",
		run:  func(w *world) { w.register("m", true) },
	},
	{
		// First, second and steady-state full checkpoint: the slot pair
		// fills, then alternates. No digests, so commit persists no table.
		name:  "full",
		setup: func(w *world) { w.register("m", false) },
		run: func(w *world) {
			for iter := uint64(1); iter <= 3; iter++ {
				w.checkpoint("m", iter, 0)
			}
		},
	},
	{
		// Incremental checkpoints: dirty blocks pulled, clean ones copied
		// forward inside PMem, the target slot's digest table rewritten in
		// place before its DONE flag.
		name: "delta",
		setup: func(w *world) {
			w.register("m", true)
			w.checkpoint("m", 1, 0)
			w.checkpoint("m", 2, sparse)
		},
		run: func(w *world) {
			saved := w.d.Telemetry().Counter("portus_delta_bytes_saved_total", "")
			before := saved.Value()
			w.checkpoint("m", 3, sparse)
			w.checkpoint("m", 4, sparse)
			if saved.Value() == before {
				w.t.Fatal("neither checkpoint ran incrementally: the row does not cover copy-forward")
			}
		},
	},
	{
		// Same-size digest-table rewrite at the index level, where old and
		// new are both known: reopen sees one of them or a clean miss.
		name: "deltaput-same-size",
		setup: func(w *world) {
			w.deltaPut(w.bert(), 0, table(32, 5))
		},
		run: func(w *world) { w.deltaPut(w.bert(), 0, table(32, 6)) },
		check: func(w *world) {
			if got, ok := w.d.Store().DeltaGet(w.bert(), 0); ok &&
				!reflect.DeepEqual(got, table(32, 5)) && !reflect.DeepEqual(got, table(32, 6)) {
				w.t.Fatalf("torn digest table: %+v", got)
			}
			w.deltaPut(w.bert(), 0, table(32, 7))
		},
	},
	{
		// Fresh allocation below the region break: the record is invisible
		// until the break persists, and the neighbouring record is intact.
		name: "deltaput-fresh",
		setup: func(w *world) {
			w.deltaPut(w.bert(), 0, table(32, 5))
		},
		run: func(w *world) { w.deltaPut(w.bert(), 1, table(64, 6)) },
		check: func(w *world) {
			m := w.bert()
			if got, ok := w.d.Store().DeltaGet(m, 1); ok && !reflect.DeepEqual(got, table(64, 6)) {
				w.t.Fatalf("half-published digest table: %+v", got)
			}
			if got, ok := w.d.Store().DeltaGet(m, 0); !ok || !reflect.DeepEqual(got, table(32, 5)) {
				w.t.Fatalf("neighbouring record damaged: ok=%v %+v", ok, got)
			}
			w.deltaPut(m, 1, table(64, 7))
		},
	},
	{
		name: "delete",
		setup: func(w *world) {
			for _, name := range []string{"a", "b"} {
				w.register(name, true)
				w.checkpoint(name, 1, 0)
				w.checkpoint(name, 2, sparse)
			}
		},
		run: func(w *world) { w.delete("a") },
	},
	{
		// Online repack pass: a's deletion opens gaps below b and c, every
		// populated slot of both moves down (allocate, flush, repoint,
		// free), then FinishPass trims the bump pointer and compacts the
		// ModelTable.
		name:  "repack",
		setup: fragment,
		run:   func(w *world) { w.repack() },
		check: func(w *world) {
			// Both slots of both survivors came through (verify restored
			// each DONE slot; here: none went missing), and a second pass
			// over the recovered namespace completes and preserves them.
			bothSlots := func() {
				for _, name := range []string{"b", "c"} {
					m, err := w.d.Store().Lookup(name)
					if err != nil {
						w.t.Fatal(err)
					}
					for slot, iter := range []uint64{1, 2} {
						if h := m.VersionHeader(slot); h.State != index.StateDone || h.Iteration != iter {
							w.t.Fatalf("%s slot %d = %s iteration %d, want DONE %d", name, slot, index.StateName(h.State), h.Iteration, iter)
						}
						w.restore(name, iter, iter)
					}
				}
			}
			bothSlots()
			w.repack()
			w.structure()
			bothSlots()
		},
	},
	{
		name:  "compact-table",
		setup: fragment,
		run: func(w *world) {
			if err := w.d.Store().CompactTable(); err != nil {
				w.t.Fatal(err)
			}
		},
		check: func(w *world) {
			// Old or new, the table lists exactly the two survivors.
			if names := w.d.Store().Names(); len(names) != 2 {
				w.t.Fatalf("recovered table lists %v", names)
			}
		},
	},
	{
		// Anti-entropy install: a DUMP container commits as a new model
		// through the same transaction as a checkpoint.
		name: "load",
		setup: func(w *world) {
			w.register("src", false)
			w.checkpoint("src", 5, 0)
			dump := w.call(&wire.Msg{Type: wire.TDump, Model: "src"}, wire.TDumpResp)
			ckpt, err := serialize.Decode(bytes.NewReader(dump.Payload))
			if err != nil {
				w.t.Fatal(err)
			}
			ckpt.Model = "copy"
			var buf bytes.Buffer
			if err := serialize.Encode(&buf, ckpt); err != nil {
				w.t.Fatal(err)
			}
			// The copy's tensors keep src's names (admission matches on
			// them), and its reference content is src's.
			s := spec("src")
			s.Name = "copy"
			tn := w.add(s, false)
			tn.ref[5], tn.tried = w.tenants["src"].ref[5], 5
			w.pending = &wire.Msg{Type: wire.TLoad, Model: "copy", Iteration: 5, Payload: buf.Bytes(), CRC: dump.CRC}
		},
		run: func(w *world) {
			w.call(w.pending, wire.TLoadOK)
			if tn := w.tenants["copy"]; !w.pm.Dark() {
				tn.registered, tn.acked = true, 5
			}
		},
	},
	{
		// Everything in one run, every boundary of it swept: two tenants
		// register, checkpoint full then incrementally, one is deleted, a
		// repack pass moves the other down, a third is admitted into the
		// recycled MIndex bytes, digest record and extents, and the
		// survivor checkpoints again.
		name: "lifecycle",
		run: func(w *world) {
			w.register("a", true)
			w.register("b", true)
			w.checkpoint("a", 1, 0)
			w.checkpoint("b", 1, 0)
			w.checkpoint("b", 2, sparse)
			w.checkpoint("b", 3, sparse)
			w.delete("a")
			w.repack()
			w.register("c", true)
			w.checkpoint("c", 1, 0)
			w.checkpoint("b", 4, sparse)
		},
	},
}

// fragment leaves b and c with both slots DONE (iterations 1 and 2)
// above the hole a's deletion opened, and a tombstone in the ModelTable.
func fragment(w *world) {
	for _, name := range []string{"a", "b", "c"} {
		w.register(name, true)
		w.checkpoint(name, 1, 0)
		w.checkpoint(name, 2, sparse)
	}
	w.delete("a")
}

// table is a synthetic digest table, a pure function of its arguments
// so a check can rebuild what setup and run wrote.
func table(count int, iter uint64) *delta.Table {
	t := &delta.Table{BlockBytes: block, Iteration: iter, Layout: 0xfeedface}
	for i := 0; i < count; i++ {
		t.Digests = append(t.Digests, uint64(i)*31+iter)
	}
	return t
}

// bert is the index-level rows' model: created straight in the index on
// first use (no client, no ledger entry), looked up from then on — after
// the crash, from what survived.
func (w *world) bert() *index.Model {
	m, err := w.d.Store().Lookup("bert")
	if err != nil {
		m, err = w.d.Store().CreateModel("bert", spec("bert").Tensors)
	}
	if err != nil {
		w.t.Fatal(err)
	}
	return m
}

func (w *world) deltaPut(m *index.Model, slot int, t *delta.Table) {
	if err := w.d.Store().DeltaPut(m, slot, t); err != nil {
		w.t.Fatal(err)
	}
	if got, ok := w.d.Store().DeltaGet(m, slot); !ok || !reflect.DeepEqual(got, t) {
		w.t.Fatalf("digest table does not read back: ok=%v", ok)
	}
}
