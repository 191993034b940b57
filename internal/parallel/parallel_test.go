package parallel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/portus-sys/portus/internal/model"
)

func TestPartitionConservesBytes(t *testing.T) {
	spec := model.GPT("g", 4, 256, 1000, 0)
	shards, err := Partition(spec, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 8 {
		t.Fatalf("got %d shards, want 8", len(shards))
	}
	if got := TotalSize(shards); got != spec.TotalSize() {
		t.Fatalf("shard bytes %d != model bytes %d", got, spec.TotalSize())
	}
}

func TestPartitionNamesAreUnique(t *testing.T) {
	spec := model.TableII()[6] // bert_large
	shards, err := Partition(spec, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range shards {
		if seen[s.Spec.Name] {
			t.Fatalf("duplicate shard name %q", s.Spec.Name)
		}
		seen[s.Spec.Name] = true
	}
	if !seen["bert_large/mp_rank_01_pp_03"] {
		t.Fatalf("expected canonical shard name, got %v", shards[len(shards)-1].Spec.Name)
	}
}

func TestPipelineStagesCoverAllTensors(t *testing.T) {
	spec := model.TableII()[2] // resnet50, 161 tensors
	shards, err := Partition(spec, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	var tensors int
	for _, s := range shards {
		tensors += s.Spec.NumTensors()
	}
	if tensors != spec.NumTensors() {
		t.Fatalf("stages cover %d tensors, want %d", tensors, spec.NumTensors())
	}
}

func TestDegeneratePartitionIsIdentity(t *testing.T) {
	spec := model.TableII()[0]
	shards, err := Partition(spec, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0].Spec.TotalSize() != spec.TotalSize() {
		t.Fatal("1x1 partition is not the whole model")
	}
}

func TestPartitionErrors(t *testing.T) {
	spec := model.TableII()[0]
	if _, err := Partition(spec, 0, 1); err == nil {
		t.Error("zero tensor-parallel size accepted")
	}
	if _, err := Partition(spec, 1, 1000); err == nil {
		t.Error("more pipeline stages than tensors accepted")
	}
}

func TestPlace(t *testing.T) {
	spec := model.GPT("g", 4, 256, 1000, 0)
	shards, _ := Partition(spec, 8, 2)
	pl, err := Place(shards, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pl[0].Node != 0 || pl[15].Node != 1 || pl[15].GPU != 7 {
		t.Fatalf("placement wrong: first %+v last %+v", pl[0], pl[15])
	}
	if _, err := Place(shards, 1, 8); err == nil {
		t.Error("overcommitted placement accepted")
	}
}

// Property: partitioning any Table II model over any grid conserves
// total bytes and covers every tensor payload exactly once.
func TestPartitionConservationProperty(t *testing.T) {
	specs := model.TableII()
	prop := func(tpRaw, ppRaw, modelRaw uint8) bool {
		spec := specs[int(modelRaw)%len(specs)]
		tp := int(tpRaw)%8 + 1
		pp := int(ppRaw)%4 + 1
		shards, err := Partition(spec, tp, pp)
		if err != nil {
			return false
		}
		return TotalSize(shards) == spec.TotalSize() && len(shards) == tp*pp
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
