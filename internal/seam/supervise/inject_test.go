package supervise

import (
	"testing"
)

func TestParseFaults(t *testing.T) {
	faults, err := ParseFaults("nan@3, rankdeath@5:2 ,stall@7,corruptckpt@4,parttimeout@6")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: FaultNaN, Step: 3, Rank: -1},
		{Kind: FaultRankDeath, Step: 5, Rank: 2},
		{Kind: FaultStall, Step: 7, Rank: -1},
		{Kind: FaultCorruptCheckpoint, Step: 4, Rank: -1},
		{Kind: FaultPartitionTimeout, Step: 6, Rank: -1},
	}
	if len(faults) != len(want) {
		t.Fatalf("parsed %d faults, want %d", len(faults), len(want))
	}
	for i, f := range faults {
		if f.Kind != want[i].Kind || f.Step != want[i].Step || f.Rank != want[i].Rank {
			t.Errorf("fault %d = %+v, want %+v", i, f, want[i])
		}
	}

	for _, bad := range []string{"", "nan", "nan@x", "nan@-1", "boom@3", "nan@3:x", "nan@3:-2"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted", bad)
		}
	}
}

// TestInjectorDerivedRanksDeterministic: unresolved ranks derive from the
// seed alone, so two injectors with the same seed arm identically — the
// basis of the replayable fault matrix.
func TestInjectorDerivedRanksDeterministic(t *testing.T) {
	mk := func() *Injector {
		return NewInjector(42,
			Fault{Kind: FaultNaN, Step: 1, Rank: -1},
			Fault{Kind: FaultRankDeath, Step: 2, Rank: -1},
			Fault{Kind: FaultStall, Step: 3, Rank: -1})
	}
	a, b := mk(), mk()
	a.arm(6)
	b.arm(6)
	fa, fb := a.faults, b.faults
	for i := range fa {
		if fa[i].Rank != fb[i].Rank {
			t.Fatalf("fault %d armed to rank %d vs %d", i, fa[i].Rank, fb[i].Rank)
		}
		if fa[i].Rank < 0 || fa[i].Rank >= 6 {
			t.Fatalf("fault %d armed out of range: %d", i, fa[i].Rank)
		}
	}
}

func TestInjectorTakeConsumesOnce(t *testing.T) {
	in := NewInjector(1, Fault{Kind: FaultNaN, Step: 4, Rank: 2})
	in.arm(4)
	if f := in.take(FaultNaN, 4, 3); f != nil {
		t.Error("wrong rank matched")
	}
	if f := in.take(FaultNaN, 3, 2); f != nil {
		t.Error("wrong step matched")
	}
	f := in.take(FaultNaN, 4, 2)
	if f == nil {
		t.Fatal("scheduled fault not taken")
	}
	if g := in.take(FaultNaN, 4, 2); g != nil {
		t.Error("fault fired twice")
	}
	if got := in.firedAt(FaultNaN, 4); got == nil || got.Rank != 2 {
		t.Errorf("firedAt = %+v, want rank 2", got)
	}
}

// TestInjectorRearmWrapsDeadRanks: after a rank death shrinks the rank
// range, explicit targets beyond the new range wrap instead of going dark.
func TestInjectorRearmWrapsDeadRanks(t *testing.T) {
	in := NewInjector(1, Fault{Kind: FaultStall, Step: 9, Rank: 3})
	in.arm(4)
	in.arm(3) // rank 3 died
	if f := in.faults[0]; f.Rank < 0 || f.Rank >= 3 {
		t.Errorf("fault still targets dead rank: %+v", f)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if f := in.take(FaultNaN, 0, 0); f != nil {
		t.Error("nil injector produced a fault")
	}
	if f := in.firedAt(FaultNaN, 0); f != nil {
		t.Error("nil injector fired")
	}
}
