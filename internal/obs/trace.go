package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// EventKind labels one structured trace event.
type EventKind uint8

const (
	// EvStep marks the completion of one time step (Arg: step flops).
	EvStep EventKind = iota
	// EvStage is one rank's compute span of one RK stage (Arg unused).
	EvStage
	// EvDSS is one rank's DSS assembly span of one RK stage
	// (Arg: bytes the rank exchanges in that stage).
	EvDSS
	// EvWait is one worker's scheduling wait — parked until a block's
	// dependencies committed under the epoch scheduler. Step/Stage name the
	// block-task the wait delayed, Rank the first rank of that block; Arg is
	// the worker id. Wait events are schedule-shaped, so they are only
	// recorded outside deterministic mode.
	EvWait
	// EvCheckpoint is a checkpoint write (Arg: encoded bytes).
	EvCheckpoint
	// EvRecovery is a run supervisor's recovery action (Arg unused); the rank
	// field names the implicated rank, -1 when none.
	EvRecovery
	// EvSim is a discrete-event-simulator summary (Arg: events processed).
	EvSim
)

var eventKindNames = [...]string{
	EvStep: "step", EvStage: "stage", EvDSS: "dss", EvWait: "wait",
	EvCheckpoint: "checkpoint", EvRecovery: "recovery", EvSim: "sim",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one structured trace record. T is nanoseconds since the
// trace started; Dur is the span duration in nanoseconds (0 for point
// events). In deterministic mode both are forced to zero so that the
// stream depends only on the schedule's logical content.
type Event struct {
	T     int64     `json:"t"`
	Dur   int64     `json:"dur,omitempty"`
	Kind  EventKind `json:"-"`
	KindS string    `json:"kind"` // set during encode/decode
	Step  int32     `json:"step"`
	Stage int8      `json:"stage"`
	Rank  int32     `json:"rank"`
	Arg   int64     `json:"arg,omitempty"`
}

// RunTrace is a bounded, mutex-guarded ring buffer of Events. When the
// ring fills, the oldest events are overwritten and Dropped counts them;
// memory stays bounded no matter how long the run.
//
// Deterministic (the ObsDeterministic mode of the design docs) makes the
// trace goldable: timestamps and durations are zeroed at record time and
// Events() returns the stream sorted by logical position (step, stage,
// kind, rank, arg) rather than arrival order, so two same-seed runs are
// deeply equal at any GOMAXPROCS. Set it before the first Record.
type RunTrace struct {
	// Deterministic zeroes wall-clock fields and sorts Events() logically.
	Deterministic bool

	mu      sync.Mutex
	start   time.Time
	started bool
	buf     []Event
	next    int   // ring cursor
	total   int64 // events ever recorded
}

// NewRunTrace returns a trace holding at most capacity events (minimum
// 16; a few thousand covers a typical supervised run).
func NewRunTrace(capacity int) *RunTrace {
	if capacity < 16 {
		capacity = 16
	}
	return &RunTrace{buf: make([]Event, 0, capacity)}
}

// Record appends one event. Nil-safe: a nil trace is the disabled path.
// The Kind field of ev must be set; T is stamped here unless the caller
// already set it or the trace is deterministic.
func (t *RunTrace) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.started {
		t.start = time.Now()
		t.started = true
	}
	if t.Deterministic {
		ev.T, ev.Dur = 0, 0
	} else if ev.T == 0 {
		ev.T = time.Since(t.start).Nanoseconds()
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
	}
	t.next++
	if t.next == cap(t.buf) {
		t.next = 0
	}
	t.total++
	t.mu.Unlock()
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (t *RunTrace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - int64(len(t.buf))
}

// Events returns a copy of the retained events. In normal mode the order
// is arrival order (oldest first); in deterministic mode it is the
// logical order (step, stage, kind, rank, arg), which is identical
// across same-seed runs regardless of scheduling.
func (t *RunTrace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) == cap(t.buf) {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	det := t.Deterministic
	t.mu.Unlock()
	if det {
		sort.SliceStable(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.Step != b.Step {
				return a.Step < b.Step
			}
			if a.Stage != b.Stage {
				return a.Stage < b.Stage
			}
			if a.Kind != b.Kind {
				return a.Kind < b.Kind
			}
			if a.Rank != b.Rank {
				return a.Rank < b.Rank
			}
			return a.Arg < b.Arg
		})
	}
	return out
}

// WriteJSONL writes the retained events as JSON Lines, one event per
// line, in the order of Events().
func (t *RunTrace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.Events() {
		ev.KindS = ev.Kind.String()
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}
