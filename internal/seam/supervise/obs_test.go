package supervise

import (
	"context"
	"testing"

	"sfccube/internal/obs"
)

// TestSupervisorObs: an instrumented supervised run with an injected NaN
// must meter checkpoints (bytes + latency samples) and per-kind event
// counters that agree with the event log (the rollback and the recovered
// fault included) — and emit EvCheckpoint/EvRecovery trace events.
func TestSupervisorObs(t *testing.T) {
	sw, dt := testSW(t, tNe, tDeg)
	reg := obs.NewRegistry()
	tr := obs.NewRunTrace(1 << 10)
	sup := &Supervisor{
		SW: sw, Ne: tNe, Assign: sfcAssign(t, tNe, tRanks), NRanks: tRanks,
		Store:    NewMemStore(),
		Injector: NewInjector(5, Fault{Kind: FaultNaN, Step: 2, Rank: 1}),
		Policy:   Policy{CheckpointEvery: 2},
		Obs:      reg, Trace: tr,
	}
	rep, err := sup.Run(context.Background(), 6, dt)
	if err != nil {
		t.Fatal(err)
	}

	// Per-kind event counters mirror the event log exactly.
	byKind := map[EventKind]int64{}
	for _, e := range rep.Events {
		byKind[e.Kind]++
	}
	for kind, want := range byKind {
		if got := reg.Counter("resilience_events_total", "kind", string(kind)).Value(); got != want {
			t.Errorf("events_total{kind=%q} = %d, want %d", kind, got, want)
		}
	}

	// Checkpoint meters: one latency sample and one encoded-size share per
	// checkpoint the report counted.
	h := reg.Histogram("resilience_checkpoint_write_ns")
	if h.Count() != int64(rep.Checkpoints) {
		t.Errorf("checkpoint latency samples = %d, want %d", h.Count(), rep.Checkpoints)
	}
	wantBytes := int64(rep.Checkpoints) * int64(len(EncodeCheckpoint(sw, 0, dt)))
	if got := reg.Counter("resilience_checkpoint_bytes_total").Value(); got != wantBytes {
		t.Errorf("checkpoint_bytes_total = %d, want %d", got, wantBytes)
	}

	// Trace events: one EvCheckpoint per checkpoint, one EvRecovery per
	// rollback.
	var ckpts, recov int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.EvCheckpoint:
			ckpts++
		case obs.EvRecovery:
			recov++
		}
	}
	if ckpts != rep.Checkpoints || recov != rep.Rollbacks {
		t.Errorf("trace saw %d checkpoints / %d recoveries, report says %d / %d",
			ckpts, recov, rep.Checkpoints, rep.Rollbacks)
	}
}

// TestSupervisorObsDoesNotPerturb: metering must not change the integration
// — the event log of an instrumented faulty run equals the uninstrumented
// one (both deterministic for a fixed injector seed).
func TestSupervisorObsDoesNotPerturb(t *testing.T) {
	run := func(reg *obs.Registry) *Report {
		sw, dt := testSW(t, tNe, tDeg)
		sup := &Supervisor{
			SW: sw, Ne: tNe, Assign: sfcAssign(t, tNe, tRanks), NRanks: tRanks,
			Store:    NewMemStore(),
			Injector: NewInjector(9, Fault{Kind: FaultNaN, Step: 1, Rank: 0}),
			Policy:   Policy{CheckpointEvery: 2},
			Obs:      reg,
		}
		rep, err := sup.Run(context.Background(), 5, dt)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain, metered := run(nil), run(obs.NewRegistry())
	if len(plain.Events) != len(metered.Events) {
		t.Fatalf("event logs differ: %d vs %d entries", len(plain.Events), len(metered.Events))
	}
	for i := range plain.Events {
		if plain.Events[i] != metered.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, plain.Events[i], metered.Events[i])
		}
	}
}
