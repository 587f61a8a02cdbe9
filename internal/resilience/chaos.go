package resilience

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sfccube/internal/prng"
)

// ChaosKind enumerates the service-level injectable fault classes — the
// HTTP-facing complement of supervise.FaultKind. The kinds map onto the
// failure modes a partition service meets in production: slow responses,
// severed connections, compute that hogs a worker, and plain errors.
type ChaosKind int

const (
	// ChaosSlowResp delays the response by the spec's Param before the
	// request is handled.
	ChaosSlowResp ChaosKind = iota
	// ChaosDroppedConn severs the connection without sending a response.
	ChaosDroppedConn
	// ChaosComputeStall makes the compute path hold its worker slot idle
	// for the spec's Param before partitioning, filling the pool and
	// exercising admission control.
	ChaosComputeStall
	// ChaosErrInject answers with an injected 503 without doing any work.
	ChaosErrInject
)

var chaosNames = map[ChaosKind]string{
	ChaosSlowResp:     "slowresp",
	ChaosDroppedConn:  "droppedconn",
	ChaosComputeStall: "computestall",
	ChaosErrInject:    "errinject",
}

func (k ChaosKind) String() string {
	if s, ok := chaosNames[k]; ok {
		return s
	}
	return fmt.Sprintf("ChaosKind(%d)", int(k))
}

// DefaultChaosParam is the slowresp/computestall duration when a plan
// entry carries none.
const DefaultChaosParam = 50 * time.Millisecond

// ChaosSpec is one entry of a chaos plan: inject Kind into an arriving
// request with probability Rate; Param is the duration parameter of the
// timed kinds.
type ChaosSpec struct {
	Kind  ChaosKind
	Rate  float64
	Param time.Duration
}

// ChaosPlan assigns each arriving request a deterministic injection
// decision: the decision for the n-th request is a pure function of
// (seed, plan, n), so a soak under a fixed seed replays the identical
// fault multiset. Entries are evaluated in plan order and the first hit
// wins. Next is safe for concurrent use; a nil *ChaosPlan injects
// nothing.
type ChaosPlan struct {
	seed  uint64
	specs []ChaosSpec
	n     atomic.Uint64
}

// NewChaosPlan builds a plan from specs. Spec order is significant: it is
// both the evaluation priority and part of the seed derivation.
func NewChaosPlan(seed uint64, specs ...ChaosSpec) *ChaosPlan {
	return &ChaosPlan{seed: seed, specs: append([]ChaosSpec(nil), specs...)}
}

// DecideAt returns the fault injected into the n-th request, if any. It
// is a pure function of (seed, plan, n) and does not advance the request
// counter; Next is DecideAt at the next counter value.
func (p *ChaosPlan) DecideAt(n uint64) (ChaosSpec, bool) {
	if p == nil {
		return ChaosSpec{}, false
	}
	base := prng.Mix(p.seed ^ prng.Mix(n+1))
	for i, sp := range p.specs {
		u := float64(prng.Mix(base+uint64(i))>>11) / (1 << 53)
		if u < sp.Rate {
			return sp, true
		}
	}
	return ChaosSpec{}, false
}

// Next assigns the next request index and returns its decision.
func (p *ChaosPlan) Next() (ChaosSpec, bool) {
	if p == nil {
		return ChaosSpec{}, false
	}
	return p.DecideAt(p.n.Add(1) - 1)
}

// ParseChaosPlan parses the partsrv -chaos specification: a comma-
// separated list of kind@rate or kind@rate:param entries, e.g.
//
//	slowresp@0.2:40ms,droppedconn@0.1,computestall@0.15:80ms,errinject@0.1
//
// rate is the per-request injection probability in [0,1]; param is the
// duration of the timed kinds (default 50ms) and is rejected on the
// untimed ones.
func ParseChaosPlan(spec string, seed uint64) (*ChaosPlan, error) {
	var out []ChaosSpec
	err := SplitPlan(spec, "chaos", "chaos entry", "kind@rate[:param]", chaosNames, func(item string, kind ChaosKind, rateStr, paramStr string, hasParam bool) error {
		rate, err := strconv.ParseFloat(strings.TrimSpace(rateStr), 64)
		if err != nil || rate < 0 || rate > 1 {
			return fmt.Errorf("resilience: chaos entry %q: bad rate %q (want [0,1])", item, rateStr)
		}
		sp := ChaosSpec{Kind: kind, Rate: rate, Param: DefaultChaosParam}
		if hasParam {
			if kind != ChaosSlowResp && kind != ChaosComputeStall {
				return fmt.Errorf("resilience: chaos entry %q: %s takes no duration parameter", item, kind)
			}
			d, err := time.ParseDuration(strings.TrimSpace(paramStr))
			if err != nil || d <= 0 {
				return fmt.Errorf("resilience: chaos entry %q: bad duration %q", item, paramStr)
			}
			sp.Param = d
		}
		out = append(out, sp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return NewChaosPlan(seed, out...), nil
}

// SplitPlan is the front half of ParseChaosPlan and supervise.ParseFaults: it
// splits a comma-separated plan into trimmed kind@value[:param] items,
// resolves each kind name (case-insensitively) against names, and hands the
// raw value and param strings to add. An item without '@', an unknown kind
// and a plan with no items are errors; noun ("fault", "chaos"), entry (what
// one item is called) and usage word those errors.
func SplitPlan[K ~int](spec, noun, entry, usage string, names map[K]string, add func(item string, kind K, value, param string, hasParam bool) error) error {
	byName := make(map[string]K, len(names))
	kinds := make([]string, len(names)) // in kind order, for the unknown-kind error
	for k, n := range names {
		byName[n] = k
		kinds[k] = n
	}
	items := 0
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, rest, ok := strings.Cut(item, "@")
		if !ok {
			return fmt.Errorf("resilience: %s %q: want %s", entry, item, usage)
		}
		kind, ok := byName[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return fmt.Errorf("resilience: unknown %s kind %q (want one of %s)", noun, name, strings.Join(kinds, ", "))
		}
		value, param, hasParam := strings.Cut(rest, ":")
		if err := add(item, kind, value, param, hasParam); err != nil {
			return err
		}
		items++
	}
	if items == 0 {
		return fmt.Errorf("resilience: empty %s specification %q", noun, spec)
	}
	return nil
}
