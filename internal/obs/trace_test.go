package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// TestTraceRing: the ring retains the newest cap(buf) events in arrival
// order and counts the overwritten ones.
func TestTraceRing(t *testing.T) {
	tr := NewRunTrace(16)
	for i := 0; i < 40; i++ {
		tr.Record(Event{Kind: EvStep, Step: int32(i)})
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	if tr.Dropped() != 24 {
		t.Fatalf("dropped = %d, want 24", tr.Dropped())
	}
	for i, ev := range evs {
		if ev.Step != int32(24+i) {
			t.Fatalf("event %d has step %d, want %d (oldest-first order)", i, ev.Step, 24+i)
		}
	}
}

// TestTraceTimestamps: in normal mode events get monotone non-negative
// nanosecond timestamps.
func TestTraceTimestamps(t *testing.T) {
	tr := NewRunTrace(16)
	tr.Record(Event{Kind: EvStage})
	tr.Record(Event{Kind: EvStage})
	evs := tr.Events()
	if evs[0].T < 0 || evs[1].T < evs[0].T {
		t.Fatalf("timestamps not monotone: %d then %d", evs[0].T, evs[1].T)
	}
}

// TestTraceDeterministic: with Deterministic set, two traces fed the same
// logical events in different arrival orders (as a racy schedule would)
// produce deeply equal streams with no wall-clock content.
func TestTraceDeterministic(t *testing.T) {
	mk := func(order []int) []Event {
		tr := NewRunTrace(64)
		tr.Deterministic = true
		for _, i := range order {
			tr.Record(Event{Kind: EvStage, Step: int32(i / 8), Stage: int8(i / 2 % 4), Rank: int32(i % 2), Dur: int64(i * 37)})
		}
		return tr.Events()
	}
	fwd := make([]int, 32)
	rev := make([]int, 32)
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(rev) - 1 - i
	}
	a, b := mk(fwd), mk(rev)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("deterministic traces differ:\n%v\n%v", a, b)
	}
	for _, ev := range a {
		if ev.T != 0 || ev.Dur != 0 {
			t.Fatalf("deterministic event carries wall-clock content: %+v", ev)
		}
	}
}

// TestTraceJSONLRoundTrip: WriteJSONL output decodes, line by line, to the
// event stream with kinds spelled by name.
func TestTraceJSONLRoundTrip(t *testing.T) {
	tr := NewRunTrace(16)
	tr.Deterministic = true
	tr.Record(Event{Kind: EvDSS, Step: 3, Stage: 2, Rank: 5, Arg: 4096})
	tr.Record(Event{Kind: EvCheckpoint, Step: 4, Rank: -1, Arg: 888})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var got []Event
	for dec := json.NewDecoder(&buf); dec.More(); {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	want := tr.Events()
	for i := range want {
		want[i].KindS, want[i].Kind = want[i].Kind.String(), 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestTraceConcurrent hammers Record from many goroutines (race oracle).
func TestTraceConcurrent(t *testing.T) {
	tr := NewRunTrace(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(Event{Kind: EvStage, Rank: int32(w), Step: int32(i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = tr.Events()
			_ = tr.Dropped()
		}
	}()
	wg.Wait()
	<-done
	if got := tr.Dropped() + int64(len(tr.Events())); got != 8*500 {
		t.Fatalf("retained+dropped = %d, want %d", got, 8*500)
	}
}

// BenchmarkCounterAdd measures the enabled hot-path cost of one counter
// increment (one padded atomic add).
func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkCounterDisabled measures the disabled fast path: a nil
// handle's Add must be a predictable branch and nothing else.
func BenchmarkCounterDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("bench_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkHistogramObserve measures the enabled histogram path
// (bits.Len64 + three atomic adds).
func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_ns")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
