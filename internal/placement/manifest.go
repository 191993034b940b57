package placement

import (
	"sort"
	"sync"
)

// ManifestWindow is how many recently-DONE iterations each shard copy
// retains — matched to the two double-mapped version slots every model
// keeps on PMem, because an iteration older than that has been evicted
// and is no longer restorable anyway.
const ManifestWindow = 2

// Manifest is the iteration-level commit record of a sharded, possibly
// replicated checkpoint. Each member shard has an owner set (its
// replica nodes, best rendezvous node first); every owner copy reports
// the iterations its daemon has marked DONE. An iteration is
// group-committed — and hence restorable — iff it is present in the
// recent-done window of every owner copy of every shard. A
// mid-checkpoint daemon failure therefore never loses a committed
// checkpoint: the failed copy simply never reports the new iteration,
// and Committed() keeps answering the previous one.
//
// Committed() is additionally latched forward-only: once an iteration
// group-commits, later membership changes (a node death dropping its
// copies, an epoch bump shrinking owner sets) can never un-commit it.
//
// Shards created by AddShard without a declared owner set track a
// single anonymous copy — the pre-replication behavior, kept for
// single-copy routers and tests.
type Manifest struct {
	mu     sync.Mutex
	window int
	order  []string
	shards map[string]*shardRecord
	// committed is the forward-only high-water group commit.
	committed uint64
}

// shardRecord tracks one shard's replica copies.
type shardRecord struct {
	// owners is the declared replica set, best node first. Empty means
	// the shard predates replication and uses one anonymous copy ("").
	owners []string
	// copies holds each node's recent DONE iterations, newest last.
	copies map[string][]uint64
	// crcs remembers the content fingerprint reported with each DONE
	// iteration, for integrity-checked restore. Pruned alongside the
	// copy windows.
	crcs map[uint64]uint64
}

// NewManifest creates an empty manifest with the standard window.
func NewManifest() *Manifest {
	return &Manifest{window: ManifestWindow, shards: make(map[string]*shardRecord)}
}

func (mf *Manifest) recordLocked(shard string) *shardRecord {
	rec, ok := mf.shards[shard]
	if !ok {
		rec = &shardRecord{copies: make(map[string][]uint64), crcs: make(map[uint64]uint64)}
		mf.shards[shard] = rec
		mf.order = append(mf.order, shard)
	}
	return rec
}

// requiredCopies names the copies whose windows gate a group commit.
func (rec *shardRecord) requiredCopies() []string {
	if len(rec.owners) > 0 {
		return rec.owners
	}
	return []string{""}
}

// AddShard registers a member shard. Idempotent.
func (mf *Manifest) AddShard(name string) {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	mf.recordLocked(name)
}

// SetOwners declares (or re-places, after an epoch bump) a shard's
// replica set. Copies on nodes leaving the set are forgotten: either
// the node is dead and its data lost, or it is no longer responsible
// for the shard.
func (mf *Manifest) SetOwners(shard string, nodes []string) {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	rec := mf.recordLocked(shard)
	rec.owners = append([]string(nil), nodes...)
	keep := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		keep[n] = true
	}
	for n := range rec.copies {
		if !keep[n] {
			delete(rec.copies, n)
		}
	}
}

// Owners returns a shard's declared replica set (nil for legacy
// single-copy shards).
func (mf *Manifest) Owners(shard string) []string {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	rec, ok := mf.shards[shard]
	if !ok {
		return nil
	}
	return append([]string(nil), rec.owners...)
}

// Shards lists the member shards in registration order.
func (mf *Manifest) Shards() []string {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	out := make([]string, len(mf.order))
	copy(out, mf.order)
	return out
}

// Done records that shard's daemon reported iteration DONE — the
// single-copy path: with owners declared it is shorthand for every
// owner reporting at once.
func (mf *Manifest) Done(shard string, iter uint64) {
	mf.Observe(shard, iter)
}

// DoneOn records that one replica copy of shard reported iteration
// DONE.
func (mf *Manifest) DoneOn(shard, node string, iter uint64) {
	mf.ObserveOn(shard, node, iter)
}

// Observe merges known-DONE iterations into every required copy of a
// shard — the single-copy rebuild path when a router resynchronizes
// the manifest from the daemons' LIST responses.
func (mf *Manifest) Observe(shard string, iters ...uint64) {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	rec := mf.recordLocked(shard)
	for _, copyName := range rec.requiredCopies() {
		mf.observeLocked(rec, copyName, iters)
	}
	mf.latchLocked()
}

// ObserveOn merges known-DONE iterations into one replica copy's
// window. Only the newest `window` survive.
func (mf *Manifest) ObserveOn(shard, node string, iters ...uint64) {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	mf.observeLocked(mf.recordLocked(shard), node, iters)
	mf.latchLocked()
}

func (mf *Manifest) observeLocked(rec *shardRecord, node string, iters []uint64) {
	w := rec.copies[node]
	for _, it := range iters {
		if it == 0 || contains(w, it) {
			continue
		}
		w = append(w, it)
	}
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	if len(w) > mf.window {
		w = w[len(w)-mf.window:]
	}
	rec.copies[node] = w
}

// SetCRC records the content fingerprint a daemon reported with a DONE
// iteration of shard; a zero crc (a version stored without a stamp)
// records nothing. Entries older than the retained windows are pruned.
func (mf *Manifest) SetCRC(shard string, iter, crc uint64) {
	if iter == 0 || crc == 0 {
		return
	}
	mf.mu.Lock()
	defer mf.mu.Unlock()
	rec := mf.recordLocked(shard)
	rec.crcs[iter] = crc
	if len(rec.crcs) > 2*mf.window+2 {
		its := make([]uint64, 0, len(rec.crcs))
		for it := range rec.crcs {
			its = append(its, it)
		}
		sort.Slice(its, func(i, j int) bool { return its[i] < its[j] })
		for _, it := range its[:len(its)-2*mf.window] {
			delete(rec.crcs, it)
		}
	}
}

// CRCOf returns the recorded fingerprint for (shard, iter), zero if
// unknown.
func (mf *Manifest) CRCOf(shard string, iter uint64) uint64 {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	rec, ok := mf.shards[shard]
	if !ok {
		return 0
	}
	return rec.crcs[iter]
}

// DropNode forgets every copy held by node — called when a storage
// node dies (its PMem contents are presumed lost) so HoldersOf and the
// commit rule stop counting it.
func (mf *Manifest) DropNode(node string) {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	for _, rec := range mf.shards {
		delete(rec.copies, node)
	}
}

// HoldersOf names the replica nodes whose copy window contains iter
// for shard, best owner first — the candidates an integrity-checked
// restore may be served from.
func (mf *Manifest) HoldersOf(shard string, iter uint64) []string {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	rec, ok := mf.shards[shard]
	if !ok {
		return nil
	}
	var out []string
	for _, n := range rec.requiredCopies() {
		if contains(rec.copies[n], iter) {
			out = append(out, n)
		}
	}
	// Copies surviving outside the current owner set (e.g. after a
	// re-placement) are still valid restore sources.
	for n, w := range rec.copies {
		if contains(w, iter) && !containsStr(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// Committed returns the highest iteration present in every required
// copy's window of every shard — the group-committed checkpoint a
// striped restore must target — latched so it never regresses when
// membership changes. Zero means no iteration has ever group-committed.
func (mf *Manifest) Committed() uint64 {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	return mf.latchLocked()
}

// latchLocked recomputes the group commit and advances the latch. It
// runs on every DONE observation — not just on Committed() reads — so a
// node death immediately after a group commit can never lose it: the
// latch already holds the iteration even if nobody asked yet.
func (mf *Manifest) latchLocked() uint64 {
	if len(mf.order) == 0 {
		return mf.committed
	}
	first := mf.shards[mf.order[0]]
	var cand []uint64
	for _, n := range first.requiredCopies() {
		cand = append(cand, first.copies[n]...)
	}
	var best uint64
	for _, it := range cand {
		if it <= best {
			continue
		}
		ok := true
		for _, s := range mf.order {
			rec := mf.shards[s]
			for _, n := range rec.requiredCopies() {
				if !contains(rec.copies[n], it) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			best = it
		}
	}
	if best > mf.committed {
		mf.committed = best
	}
	return mf.committed
}

// Lagging names the shards with a required copy whose window does not
// contain iter — the members holding back a group commit at that
// iteration.
func (mf *Manifest) Lagging(iter uint64) []string {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	var out []string
	for _, s := range mf.order {
		rec := mf.shards[s]
		for _, n := range rec.requiredCopies() {
			if !contains(rec.copies[n], iter) {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// Snapshot returns each shard's merged copy window (the union of its
// replicas' DONE iterations), for debugging and experiment tables.
func (mf *Manifest) Snapshot() map[string][]uint64 {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	out := make(map[string][]uint64, len(mf.shards))
	for s, rec := range mf.shards {
		var merged []uint64
		for _, w := range rec.copies {
			for _, it := range w {
				if !contains(merged, it) {
					merged = append(merged, it)
				}
			}
		}
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		out[s] = merged
	}
	return out
}

func contains(w []uint64, it uint64) bool {
	for _, v := range w {
		if v == it {
			return true
		}
	}
	return false
}

func containsStr(w []string, s string) bool {
	for _, v := range w {
		if v == s {
			return true
		}
	}
	return false
}
