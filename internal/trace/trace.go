// Package trace is a discrete-event simulator of one bulk-synchronous SEAM
// time step at message granularity. Where package machine evaluates closed
// formulas (per-message alpha/beta plus a per-node adapter term), trace
// actually schedules every message through the shared node adapters and
// reports when each processor finishes -- including the queueing delays the
// analytic model can only approximate. The two models are cross-checked in
// the tests and in the model-fidelity experiment: the analytic model must
// track the event-driven one closely enough that the paper's conclusions do
// not depend on which is used.
//
// The simulated protocol matches the 2003-era SEAM exchange: each processor
// computes its elements, then posts one message per neighbouring processor;
// messages leave through the sender's node adapter one at a time, spend the
// switch latency on the wire, and are delivered through the receiver's node
// adapter one at a time. A processor's step ends when it has finished
// computing and every message it sends and receives has been delivered.
package trace

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"sfccube/internal/machine"
	"sfccube/internal/mesh"
	"sfccube/internal/obs"
	"sfccube/internal/partition"
)

// Message is one point-to-point exchange of a time step.
type Message struct {
	From, To int
	Bytes    int64
}

// Result is the outcome of the event-driven simulation.
type Result struct {
	// Finish[p] is the time processor p completed the step.
	Finish []float64
	// StepTime is the slowest processor's finish time.
	StepTime float64
	// AdapterBusy[n] is the total time node n's adapter spent transmitting
	// or delivering.
	AdapterBusy []float64
	// Messages is the number of messages simulated.
	Messages int
	// MaxQueueDepth is the deepest the event queue ever got — the
	// simulator's working-set high-water mark, useful for sizing sweeps.
	MaxQueueDepth int
	// Events is the total number of simulator events processed.
	Events int64
}

// event is a scheduled simulator event.
type event struct {
	t    float64
	seq  int // tie-break for determinism
	kind int
	proc int // acting processor (send events)
	msg  int // message index
}

const (
	evComputeDone = iota
	evSendStart
	evWireDone
	evDelivered
)

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q *eventQueue) push(e event) { heap.Push(q, e) }
func (q *eventQueue) pop() event   { return heap.Pop(q).(event) }

// Simulate runs the event-driven model for one step: computeTime[p] is each
// processor's element work, msgs are the exchanges, mod supplies latency,
// adapter bandwidth and node layout. It is SimulateCtx without a deadline.
func Simulate(computeTime []float64, msgs []Message, mod machine.Model) (Result, error) {
	return SimulateCtx(context.Background(), computeTime, msgs, mod)
}

// SimulateCtx is Simulate with cooperative cancellation: the event loop
// polls ctx every few thousand events (a large sweep schedules millions),
// and on expiry returns an error wrapping ctx.Err(). An un-cancelled
// SimulateCtx is identical to Simulate — the polls do not perturb the
// deterministic event order.
func SimulateCtx(ctx context.Context, computeTime []float64, msgs []Message, mod machine.Model) (Result, error) {
	return SimulateObs(ctx, computeTime, msgs, mod, nil)
}

// simMetrics holds the pre-resolved simulator metric handles; nil is the
// disabled path (see DESIGN.md "Observability").
type simMetrics struct {
	runs   *obs.Counter   // trace_sim_runs_total
	events *obs.Counter   // trace_sim_events_total
	msgs   *obs.Counter   // trace_sim_messages_total
	depth  *obs.Histogram // trace_sim_queue_depth
}

func newSimMetrics(reg *obs.Registry) *simMetrics {
	if reg == nil {
		return nil
	}
	reg.Help("trace_sim_runs_total", "event-driven step simulations executed")
	reg.Help("trace_sim_events_total", "simulator events processed")
	reg.Help("trace_sim_messages_total", "point-to-point messages simulated")
	reg.Help("trace_sim_queue_depth", "event-queue depth sampled every 4096 events, plus the final high-water mark")
	return &simMetrics{
		runs:   reg.Counter("trace_sim_runs_total"),
		events: reg.Counter("trace_sim_events_total"),
		msgs:   reg.Counter("trace_sim_messages_total"),
		depth:  reg.Histogram("trace_sim_queue_depth"),
	}
}

// SimulateObs is SimulateCtx with metrics: when reg is non-nil the run's
// event count, message count and sampled event-queue depths are recorded
// under trace_sim_* (the queue-depth high-water mark is also returned in
// Result.MaxQueueDepth either way). Metering never perturbs the simulated
// schedule: observation happens outside the event ordering.
func SimulateObs(ctx context.Context, computeTime []float64, msgs []Message, mod machine.Model, reg *obs.Registry) (Result, error) {
	nproc := len(computeTime)
	if mod.ProcsPerNode < 1 {
		return Result{}, fmt.Errorf("trace: ProcsPerNode must be >= 1")
	}
	nodeOf, numNodes := machine.NodeLayout(nproc, mod)

	res := Result{
		Finish:      make([]float64, nproc),
		AdapterBusy: make([]float64, numNodes),
		Messages:    len(msgs),
	}

	// Per-processor send queues in deterministic order (by destination).
	sendQ := make([][]int, nproc)
	for i, m := range msgs {
		if m.From < 0 || m.From >= nproc || m.To < 0 || m.To >= nproc {
			return Result{}, fmt.Errorf("trace: message %d endpoints out of range", i)
		}
		sendQ[m.From] = append(sendQ[m.From], i)
	}
	for p := range sendQ {
		sort.Slice(sendQ[p], func(a, b int) bool { return msgs[sendQ[p][a]].To < msgs[sendQ[p][b]].To })
	}

	// State.
	sendFree := make([]float64, numNodes) // when the node adapter can next transmit
	recvFree := make([]float64, numNodes) // when it can next deliver
	nextSend := make([]int, nproc)        // index into sendQ[p]
	pendingIn := make([]int, nproc)       // messages still to receive
	pendingOut := make([]int, nproc)      // messages still to finish sending
	computeDone := make([]float64, nproc)
	delivered := make([]float64, nproc) // time last inbound message arrived
	sentAll := make([]float64, nproc)   // time last outbound message left

	for _, m := range msgs {
		pendingIn[m.To]++
		pendingOut[m.From]++
	}

	met := newSimMetrics(reg)
	var q eventQueue
	seq := 0
	post := func(t float64, kind, proc, msg int) {
		q.push(event{t: t, seq: seq, kind: kind, proc: proc, msg: msg})
		seq++
		if l := q.Len(); l > res.MaxQueueDepth {
			res.MaxQueueDepth = l
		}
	}

	// adapterBeta is the transmission cost per byte through a node adapter;
	// fall back to the remote link bandwidth when no adapter is modelled.
	adapterBeta := mod.NodeAdapterBeta
	if adapterBeta == 0 {
		adapterBeta = mod.BetaRemote
	}

	for p := 0; p < nproc; p++ {
		post(computeTime[p], evComputeDone, p, -1)
	}

	trySend := func(now float64, p int) {
		if nextSend[p] >= len(sendQ[p]) {
			return
		}
		post(now, evSendStart, p, sendQ[p][nextSend[p]])
	}

	polled := 0
	for q.Len() > 0 {
		if polled++; polled&0xfff == 0 {
			select {
			case <-ctx.Done():
				return Result{}, fmt.Errorf("trace: simulation of %d messages over %d processors cancelled: %w",
					len(msgs), nproc, ctx.Err())
			default:
			}
			if met != nil {
				met.depth.Observe(int64(q.Len()))
			}
		}
		e := q.pop()
		switch e.kind {
		case evComputeDone:
			computeDone[e.proc] = e.t
			trySend(e.t, e.proc)
		case evSendStart:
			m := msgs[e.msg]
			node := nodeOf[m.From]
			intra := nodeOf[m.From] == nodeOf[m.To]
			start := e.t
			if !intra && sendFree[node] > start {
				start = sendFree[node] // wait for the shared adapter
			}
			var txDone, arrive float64
			if intra {
				// Shared-memory copy: latency + memory bandwidth, no
				// adapter involvement.
				txDone = start + mod.AlphaLocal + float64(m.Bytes)*mod.BetaLocal
				arrive = txDone
			} else {
				txDone = start + float64(m.Bytes)*adapterBeta
				sendFree[node] = txDone
				res.AdapterBusy[node] += txDone - start
				arrive = txDone + mod.AlphaRemote + float64(m.Bytes)*mod.BetaRemote
			}
			// The sender is free to queue its next message once this one
			// is handed to the adapter.
			nextSend[m.From]++
			pendingOut[m.From]--
			if sentAll[m.From] < txDone {
				sentAll[m.From] = txDone
			}
			trySend(txDone, m.From)
			post(arrive, evWireDone, -1, e.msg)
		case evWireDone:
			m := msgs[e.msg]
			node := nodeOf[m.To]
			start := e.t
			intra := nodeOf[m.From] == nodeOf[m.To]
			var done float64
			if intra {
				done = start
			} else {
				if recvFree[node] > start {
					start = recvFree[node]
				}
				done = start + float64(m.Bytes)*adapterBeta
				recvFree[node] = done
				res.AdapterBusy[node] += done - start
			}
			post(done, evDelivered, -1, e.msg)
		case evDelivered:
			m := msgs[e.msg]
			pendingIn[m.To]--
			if delivered[m.To] < e.t {
				delivered[m.To] = e.t
			}
		}
	}

	for p := 0; p < nproc; p++ {
		t := computeDone[p]
		if sentAll[p] > t {
			t = sentAll[p]
		}
		if delivered[p] > t {
			t = delivered[p]
		}
		if pendingIn[p] != 0 || pendingOut[p] != 0 {
			return Result{}, fmt.Errorf("trace: processor %d finished with pending messages", p)
		}
		res.Finish[p] = t
		if t > res.StepTime {
			res.StepTime = t
		}
	}
	res.Events = int64(polled)
	if met != nil {
		met.runs.Inc()
		met.events.Add(res.Events)
		met.msgs.Add(int64(len(msgs)))
		met.depth.Observe(int64(res.MaxQueueDepth))
	}
	return res, nil
}

// StepMessages is the per-step message list of a partitioned cubed-sphere:
// machine.PairVolumes, one message per ordered processor pair, in its
// (From, To) order.
func StepMessages(m *mesh.Mesh, p *partition.Partition, w machine.Workload) []Message {
	pairs := machine.PairVolumes(m, p, w)
	msgs := make([]Message, len(pairs))
	for i, pv := range pairs {
		msgs[i] = Message(pv)
	}
	return msgs
}

// SimulateStep runs the event-driven model for one step of the workload on
// the partitioned mesh, computing per-processor work from the partition.
func SimulateStep(m *mesh.Mesh, p *partition.Partition, w machine.Workload, mod machine.Model) (Result, error) {
	nproc := p.NumParts()
	compute := make([]float64, nproc)
	for e := 0; e < m.NumElems(); e++ {
		compute[p.Part(e)] += float64(w.FlopsPerElem) / mod.FlopsPerProc
	}
	return Simulate(compute, StepMessages(m, p, w), mod)
}
