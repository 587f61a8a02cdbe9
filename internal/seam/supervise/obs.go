package supervise

import (
	"time"

	"sfccube/internal/obs"
)

// supMetrics holds the pre-resolved metric handles of an instrumented
// Supervisor. A nil *supMetrics is the disabled path: every method no-ops
// after one branch. The per-kind event counters are resolved lazily (the
// set of kinds that fire is run-dependent), which is fine because
// supervisor events are rare — recovery actions, not hot-loop work.
type supMetrics struct {
	reg       *obs.Registry
	ckptBytes *obs.Counter   // resilience_checkpoint_bytes_total
	ckptNs    *obs.Histogram // resilience_checkpoint_write_ns
}

// newSupMetrics registers the supervisor metric inventory on reg; nil reg
// yields the disabled handle set. See DESIGN.md "Observability".
func newSupMetrics(reg *obs.Registry) *supMetrics {
	if reg == nil {
		return nil
	}
	reg.Help("resilience_events_total", "supervisor event-log entries by kind")
	reg.Help("resilience_checkpoint_bytes_total", "bytes of encoded checkpoints handed to the store")
	reg.Help("resilience_checkpoint_write_ns", "encode+store latency of one checkpoint, nanoseconds")
	return &supMetrics{
		reg:       reg,
		ckptBytes: reg.Counter("resilience_checkpoint_bytes_total"),
		ckptNs:    reg.Histogram("resilience_checkpoint_write_ns"),
	}
}

// observeEvent counts one event-log entry under its kind label.
func (m *supMetrics) observeEvent(kind EventKind) {
	if m == nil {
		return
	}
	m.reg.Counter("resilience_events_total", "kind", string(kind)).Inc()
}

// observeCheckpoint records one checkpoint's encoded size and write
// latency (encode + store, as the supervisor experiences it).
func (m *supMetrics) observeCheckpoint(bytes int, d time.Duration) {
	if m == nil {
		return
	}
	m.ckptBytes.Add(int64(bytes))
	m.ckptNs.Observe(d.Nanoseconds())
}
