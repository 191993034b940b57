// The failover experiment proves the replicated storage tier survives
// the death of a whole storage node with zero lost committed
// checkpoints: a 4-node tier at replication factor 2 runs a sharded
// training stream, one node is killed mid-checkpoint (fabric routes
// cut, control listener and connections severed, worker pool halted),
// and the run must keep checkpointing on the survivors, restore
// byte-identically from the surviving replicas, rebuild a replacement
// node by anti-entropy re-replication, and detect a CRC-corrupted
// replica at restore time by failing over to the healthy copy.

package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/portus-sys/portus"
	"github.com/portus-sys/portus/internal/cluster"
	"github.com/portus-sys/portus/internal/faults"
	"github.com/portus-sys/portus/internal/model"
	"github.com/portus-sys/portus/internal/placement"
	"github.com/portus-sys/portus/internal/pmem"
	"github.com/portus-sys/portus/internal/sim"
	"github.com/portus-sys/portus/internal/telemetry"
)

// The failover grid: a small GPT partitioned 2×2 = 4 shards over one
// 4-GPU compute node, stored on 4 storage nodes at rf=2 — every node
// carries about two replica copies, so killing any one leaves a full
// copy of every shard alive.
const (
	failoverRF       = 2
	failoverStorage  = 4
	failoverIters    = 12 // checkpoints before revival
	failoverKillAt   = 6  // iteration killed mid-flight
	failoverPostRevi = 2  // checkpoints after the node rejoins
)

const failoverModelName = "failover-gpt"

func failoverSpec() model.Spec {
	return model.GPT(failoverModelName, 2, 64, 512, 10*time.Millisecond)
}

// FailoverOutcome is the run's measured behavior.
type FailoverOutcome struct {
	Victim string
	// KillIterCommitted reports whether the iteration in flight during
	// the kill still group-committed on the surviving replicas.
	KillIterCommitted bool
	// Regressions counts steps where the manifest's group-committed
	// iteration moved backward — the invariant is that this stays 0.
	Regressions int
	// CommittedFinal is the group-committed iteration after the full
	// stream (must equal failoverIters + failoverPostRevi).
	CommittedFinal uint64
	// DegradedRestoreOK: after the kill, with the victim still dead,
	// every shard restored byte-identically from surviving replicas.
	DegradedRestoreOK bool
	// RebuiltShards counts victim-owned shard copies converged on the
	// replacement node by anti-entropy; RebuiltOK requires every one.
	RebuiltShards int
	RebuiltOK     bool
	// CorruptionDetected: a deliberately corrupted replica was caught
	// by its CRC at restore and the restore failed over and verified.
	CorruptionDetected bool
	CorruptRestoreOK   bool
	Corruptions        int64
	// ScrapeOK reports the failover series appear in the Prometheus
	// rendering of the run's registry.
	ScrapeOK bool
}

// RunFailover executes the full kill/failover/rebuild/corruption
// scenario at the given seed and returns the measured outcome. It
// panics on any violated invariant so `make failover` and CI fail
// loudly.
func RunFailover(seed int64) FailoverOutcome {
	var out FailoverOutcome
	runEngine(func(env sim.Env) {
		reg := telemetry.NewRegistry()
		inj := faults.NewInjector(faults.Config{Seed: seed, Telemetry: reg})
		tb, err := portus.NewTestbed(env, portus.TestbedConfig{
			ComputeNodes: 1, GPUsPerNode: 4,
			GPUMemBytes:  64 << 20,
			StorageNodes: failoverStorage, PMemBytes: 256 << 20,
			Materialized: true, Replicas: failoverRF,
		})
		if err != nil {
			panic(err)
		}
		// member resolves a storage node's name to its testbed index.
		member := func(name string) int {
			return slices.IndexFunc(tb.Cluster.Storage, func(st *cluster.StorageNode) bool { return st.Name == name })
		}
		for i, st := range tb.Cluster.Storage {
			st, d := st, tb.Daemons[i]
			// A node kill = no fabric routes + no control plane + no
			// worker pool, all at once.
			inj.RegisterNode(st.Name,
				func(env sim.Env) { tb.Cluster.Fabric.CutNode(st.Name) },
				func(env sim.Env) { tb.Net().Shutdown(env, st.Name) },
				func(env sim.Env) { d.Halt(env) },
			)
		}

		sm, err := tb.PlaceSharded(env, failoverSpec(), 2, 2, portus.RouterOptions{
			Telemetry: reg,
			Replicas:  failoverRF,
			Client:    portus.ClientOptions{Telemetry: reg},
		})
		if err != nil {
			panic(err)
		}
		defer sm.Close()
		rt, apply := sm.Router(), sm.ApplyUpdate
		out.Victim = rt.Members()[0].Node
		// verify reports the first shard tensor that does not hold iter's
		// content.
		verify := func(iter uint64) (shard, tensor int) {
			for i := range sm.Shards() {
				if bad := sm.Placed(i).VerifyIteration(iter); bad != -1 {
					return i, bad
				}
			}
			return -1, -1
		}
		var committed uint64
		observe := func() {
			c := rt.Manifest().Committed()
			if c < committed {
				out.Regressions++
			}
			if c > committed {
				committed = c
			}
		}

		// Phase 1: checkpoint stream with the victim killed while
		// iteration failoverKillAt is in flight.
		for it := uint64(1); it <= failoverIters; it++ {
			apply(it)
			if it == failoverKillAt {
				gc, err := rt.CheckpointAsync(env, it)
				if err != nil {
					panic(fmt.Sprintf("failover: fan-out %d: %v", it, err))
				}
				inj.KillNode(env, out.Victim)
				if gc.Wait(env) == nil {
					out.KillIterCommitted = true
				}
			} else if err := rt.CheckpointSync(env, it); err != nil {
				panic(fmt.Sprintf("failover: checkpoint %d failed (victim %s dead since %d): %v",
					it, out.Victim, failoverKillAt, err))
			}
			observe()
		}
		if rt.Manifest().Committed() != failoverIters {
			panic(fmt.Sprintf("failover: committed %d after the stream, want %d — a committed checkpoint was lost",
				rt.Manifest().Committed(), failoverIters))
		}
		if g := reg.Gauge("portus_router_degraded_nodes", "").Value(); g != 1 {
			panic(fmt.Sprintf("failover: degraded gauge = %d with one node dead, want 1", g))
		}

		// Phase 2: degraded restore — the victim is still dead, so every
		// shard must come back from a surviving replica, byte-identical.
		apply(7777) // scramble
		iter, err := rt.Restore(env)
		if err != nil || iter != failoverIters {
			panic(fmt.Sprintf("failover: degraded restore: iter %d, err %v", iter, err))
		}
		if i, bad := verify(iter); bad != -1 {
			panic(fmt.Sprintf("failover: shard %d tensor %d mismatched after degraded restore", i, bad))
		}
		out.DegradedRestoreOK = true

		// Phase 3: a replacement node joins under the victim's name with
		// a FRESH namespace — everything it now owns must be rebuilt
		// from its peers by anti-entropy.
		freshPM := pmem.New(pmem.Config{
			Name: out.Victim + "/pmem-replacement", DataSize: 256 << 20,
			MetaSize: 64 << 20, Materialized: true, Mode: pmem.Devdax,
		})
		tb.Cluster.Fabric.RestoreNode(out.Victim)
		newd, err := tb.ReplaceMember(env, member(out.Victim), freshPM)
		if err != nil {
			panic(err)
		}
		if err := rt.Join(env, placement.Node{Name: out.Victim, Weight: freshPM.DataSize()}); err != nil {
			panic(fmt.Sprintf("failover: rejoin: %v", err))
		}
		out.RebuiltOK = true
		for _, m := range rt.Members() {
			owned := false
			for _, n := range rt.Placement().Owners(m.Shard, failoverRF) {
				if n == out.Victim {
					owned = true
				}
			}
			if !owned {
				continue
			}
			im, err := newd.Store().Lookup(m.Shard)
			if err != nil {
				out.RebuiltOK = false
				panic(fmt.Sprintf("failover: rebuilt node missing shard %q: %v", m.Shard, err))
			}
			if _, v, ok := im.LatestDone(); !ok || v.Iteration != committed {
				out.RebuiltOK = false
				panic(fmt.Sprintf("failover: shard %q on rebuilt node at iteration %d, want %d",
					m.Shard, v.Iteration, committed))
			}
			out.RebuiltShards++
		}
		if out.RebuiltShards == 0 {
			panic("failover: rendezvous assigned the rebuilt node no shards — grid no longer exercises anti-entropy")
		}
		if g := reg.Gauge("portus_router_degraded_nodes", "").Value(); g != 0 {
			panic(fmt.Sprintf("failover: degraded gauge = %d after rejoin, want 0", g))
		}

		// Phase 4: the healed tier keeps committing, including on the
		// replacement node.
		for it := uint64(failoverIters + 1); it <= failoverIters+failoverPostRevi; it++ {
			apply(it)
			if err := rt.CheckpointSync(env, it); err != nil {
				panic(fmt.Sprintf("failover: post-rejoin checkpoint %d: %v", it, err))
			}
			observe()
		}
		out.CommittedFinal = rt.Manifest().Committed()
		if out.CommittedFinal != failoverIters+failoverPostRevi {
			panic(fmt.Sprintf("failover: committed %d after rejoin, want %d",
				out.CommittedFinal, failoverIters+failoverPostRevi))
		}

		// Phase 5: corrupt one replica's stored bytes. The restore must
		// catch it by CRC, count it, fail over to the healthy copy, and
		// still verify byte-identical.
		m0 := rt.Members()[0]
		corruptNode := m0.Replicas()[0]
		im, err := tb.Daemons[member(corruptNode)].Store().Lookup(m0.Shard)
		if err != nil {
			panic(err)
		}
		slot, _, ok := im.LatestDone()
		if !ok {
			panic("failover: corrupt target has no complete version")
		}
		ext := im.TensorData(0, slot)
		garbage := make([]byte, 64)
		for i := range garbage {
			garbage[i] = 0xA5
		}
		tb.Cluster.Storage[member(corruptNode)].PMem.Data().Write(ext.Off, garbage)
		apply(8888) // scramble
		iter, err = rt.Restore(env)
		if err != nil || iter != out.CommittedFinal {
			panic(fmt.Sprintf("failover: restore with corrupt replica: iter %d, err %v", iter, err))
		}
		if i, bad := verify(iter); bad != -1 {
			panic(fmt.Sprintf("failover: shard %d tensor %d mismatched after corrupt-replica restore", i, bad))
		}
		out.CorruptRestoreOK = true
		out.Corruptions = reg.Counter("portus_restore_corruptions_total", "").Value()
		out.CorruptionDetected = out.Corruptions >= 1
		if !out.CorruptionDetected {
			panic("failover: corrupted replica was not detected via CRC at restore")
		}

		var scrape strings.Builder
		reg.WritePrometheus(&scrape)
		s := scrape.String()
		out.ScrapeOK = strings.Contains(s, "portus_restore_corruptions_total") &&
			strings.Contains(s, "portus_router_degraded_nodes") &&
			strings.Contains(s, `portus_faults_injected_total{site="node-kill"}`)
	})
	return out
}

// Failover runs the storage-node-loss scenario and reports each
// phase's verdict.
func Failover() []*Table {
	o := RunFailover(ChaosSeed)
	t := &Table{
		ID: "failover",
		Title: fmt.Sprintf("Surviving storage-node loss: %d nodes, rf=%d, node %q killed at iteration %d",
			failoverStorage, failoverRF, o.Victim, failoverKillAt),
		Header: []string{"phase", "verdict"},
	}
	verdict := func(ok bool, okText, failText string) string {
		if ok {
			return okText
		}
		return failText
	}
	killIter := "committed on survivors"
	if !o.KillIterCommitted {
		killIter = "reported ShardError; surviving copies recorded"
	}
	t.Rows = append(t.Rows,
		[]string{"iteration in flight at kill", killIter},
		[]string{"committed-iteration regressions", fmt.Sprint(o.Regressions)},
		[]string{fmt.Sprintf("stream continued to iteration %d", failoverIters), "every post-kill checkpoint committed"},
		[]string{"degraded restore (victim dead)", verdict(o.DegradedRestoreOK, "byte-identical from surviving replicas", "FAILED")},
		[]string{"anti-entropy rebuild", fmt.Sprintf("%d shard cop(ies) converged on the replacement node", o.RebuiltShards)},
		[]string{fmt.Sprintf("healed tier to iteration %d", o.CommittedFinal), "full-strength group commits resumed"},
		[]string{"corrupt-replica restore", verdict(o.CorruptRestoreOK && o.CorruptionDetected,
			fmt.Sprintf("CRC caught %d corrupt cop(ies); failed over and verified", o.Corruptions), "FAILED")},
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("seed %d; kill = fabric routes cut + control listener and connections severed + worker pool halted", ChaosSeed),
		"zero lost committed checkpoints: the manifest's group-committed iteration never moved backward at any step",
		"corruption observability: portus_restore_corruptions_total counts CRC-failed replicas skipped at restore",
	)
	if !o.ScrapeOK {
		t.Notes = append(t.Notes, "WARNING: failover series missing from the Prometheus scrape")
	}
	return []*Table{t}
}
