// Package weights generates per-element computation weights from physics
// proxies — the heterogeneous-cost regime the paper never reaches (its
// experiments assume unit element cost) but that real SEAM-style workloads
// live in. Weighted Hilbert-curve splitting is what keeps SFC partitioning
// competitive under non-uniform load (Liu et al., arXiv:1708.01365); this
// package supplies the load.
//
// A weight generator is described by a Spec, parsed from a compact string
// grammar ("cfl", "hv:amp=16,m=6", "uniform") that doubles as the wire and
// cache-key form on the partition service. Every generator is a pure
// function of the mesh geometry and the spec parameters — no RNG, no time —
// so a spec is a complete content address for its weight vector and the
// generated weights are byte-identical at any GOMAXPROCS.
//
// Activity is the definition; Generate returns its integers for arithmetic:
// centres from one Ne-entry tangent table (bitwise mesh.ElemCenter's), the
// CFL axis once per spec, hv as |Re((x+iy)^M)| = |cos^M(lat)·cos(M·lon)|.
// That differs from the trig formula by ≤ 4e-14 (M ≤ 64, Ne ≤ 384), so a
// product within 1e-9·max(1, |Amp−1|) of a half-integer goes to Activity.
package weights

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"sfccube/internal/mesh"
	"sfccube/internal/par"
)

// Kind selects the physics proxy.
type Kind int

const (
	// Uniform is unit element cost: the paper's regime. Its weight vector
	// is nil, which every weighted API reads as "unweighted".
	Uniform Kind = iota
	// CFL models advective time-step cost: the wind speed of solid-body
	// rotation about a tilted axis (Williamson test 1). Elements under the
	// jet need more substeps, so cost scales with |axis × x| at the
	// element centre.
	CFL
	// Hyperviscosity models scale-selective dissipation cost: activity
	// concentrates where a Rossby-Haurwitz wavenumber-M pattern has large
	// amplitude, |cos^M(lat)·cos(M·lon)|, the shape of the Williamson-6
	// test the SEAM solver integrates.
	Hyperviscosity
)

func (k Kind) String() string {
	switch k {
	case Uniform:
		return "uniform"
	case CFL:
		return "cfl"
	case Hyperviscosity:
		return "hv"
	}
	return "Kind(?)"
}

// Defaults of the spec parameters.
const (
	// DefaultAmp is the max/min element-cost ratio.
	DefaultAmp = 8.0
	// DefaultAlpha is the rotation-axis tilt of the CFL proxy (45°, the
	// standard Williamson flow-over-the-pole angle).
	DefaultAlpha = math.Pi / 4
	// DefaultWavenumber is the zonal wavenumber of the hyperviscosity
	// proxy (Williamson 6 uses wavenumber 4).
	DefaultWavenumber = 4
	// MaxAmp bounds the cost ratio so int64 part sums stay far from
	// overflow at any realistic element count.
	MaxAmp = 1e6
	// MaxWavenumber bounds the hyperviscosity pattern; beyond ~64 the
	// pattern aliases on any mesh this repo partitions.
	MaxWavenumber = 64
)

// Spec describes one weight generator. The zero value is Uniform.
type Spec struct {
	Kind Kind
	// Amp is the max/min cost ratio: weights span [1, round(Amp)].
	Amp float64
	// Alpha is the CFL rotation-axis tilt in radians.
	Alpha float64
	// Wavenumber is the hyperviscosity zonal wavenumber M.
	Wavenumber int
}

// ParseError reports a spec string the grammar rejects; the service maps it
// to a 400.
type ParseError struct {
	Spec   string
	Reason string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("weights: invalid spec %q: %s", e.Spec, e.Reason)
}

// Parse reads the spec grammar:
//
//	""            -> Uniform
//	"uniform"     -> Uniform
//	"cfl"         -> CFL with defaults
//	"cfl:amp=16,alpha=0.5"
//	"hv"          -> Hyperviscosity with defaults
//	"hv:amp=16,m=6" ("hyperviscosity" is an accepted alias)
//
// Unknown kinds, unknown parameters, and out-of-range values fail with
// *ParseError. The result is normalised: Parse(s).String() is the canonical
// spelling of s and Parse is idempotent over it.
func Parse(s string) (Spec, error) {
	name, params, hasParams := strings.Cut(s, ":")
	spec := Spec{Amp: DefaultAmp, Alpha: DefaultAlpha, Wavenumber: DefaultWavenumber}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "uniform":
		if hasParams {
			return Spec{}, &ParseError{Spec: s, Reason: "uniform takes no parameters"}
		}
		return Spec{}, nil
	case "cfl":
		spec.Kind = CFL
	case "hv", "hyperviscosity":
		spec.Kind = Hyperviscosity
	default:
		return Spec{}, &ParseError{Spec: s, Reason: fmt.Sprintf("unknown kind %q", name)}
	}
	if !hasParams || params == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, &ParseError{Spec: s, Reason: fmt.Sprintf("parameter %q is not key=value", kv)}
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		switch key {
		case "amp":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Spec{}, &ParseError{Spec: s, Reason: "amp: " + err.Error()}
			}
			spec.Amp = f
		case "alpha":
			if spec.Kind != CFL {
				return Spec{}, &ParseError{Spec: s, Reason: "alpha only applies to cfl"}
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Spec{}, &ParseError{Spec: s, Reason: "alpha: " + err.Error()}
			}
			spec.Alpha = f
		case "m":
			if spec.Kind != Hyperviscosity {
				return Spec{}, &ParseError{Spec: s, Reason: "m only applies to hv"}
			}
			n, err := strconv.Atoi(val)
			if err != nil {
				return Spec{}, &ParseError{Spec: s, Reason: "m: " + err.Error()}
			}
			spec.Wavenumber = n
		default:
			return Spec{}, &ParseError{Spec: s, Reason: fmt.Sprintf("unknown parameter %q", key)}
		}
	}
	if err := spec.validate(s); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

func (s Spec) validate(raw string) error {
	if s.Kind == Uniform {
		return nil
	}
	if math.IsNaN(s.Amp) || math.IsInf(s.Amp, 0) || s.Amp < 1 || s.Amp > MaxAmp {
		return &ParseError{Spec: raw, Reason: fmt.Sprintf("amp=%g out of range [1, %g]", s.Amp, MaxAmp)}
	}
	if math.IsNaN(s.Alpha) || math.IsInf(s.Alpha, 0) {
		return &ParseError{Spec: raw, Reason: "alpha must be finite"}
	}
	if s.Wavenumber < 1 || s.Wavenumber > MaxWavenumber {
		return &ParseError{Spec: raw, Reason: fmt.Sprintf("m=%d out of range [1, %d]", s.Wavenumber, MaxWavenumber)}
	}
	return nil
}

// String renders the canonical spelling: the kind, followed by the
// parameters that differ from their defaults, in fixed order. Round-trip
// law: Parse(s.String()) == s for any spec returned by Parse.
func (s Spec) String() string {
	if s.Kind == Uniform {
		return "uniform"
	}
	var params []string
	if s.Amp != DefaultAmp {
		params = append(params, "amp="+strconv.FormatFloat(s.Amp, 'g', -1, 64))
	}
	if s.Kind == CFL && s.Alpha != DefaultAlpha {
		params = append(params, "alpha="+strconv.FormatFloat(s.Alpha, 'g', -1, 64))
	}
	if s.Kind == Hyperviscosity && s.Wavenumber != DefaultWavenumber {
		params = append(params, "m="+strconv.Itoa(s.Wavenumber))
	}
	if len(params) == 0 {
		return s.Kind.String()
	}
	return s.Kind.String() + ":" + strings.Join(params, ",")
}

// IsUniform reports whether the spec generates unit cost (nil weights).
func (s Spec) IsUniform() bool { return s.Kind == Uniform }

// Activity evaluates the proxy's normalised activity in [0, 1] at a point
// on the unit sphere. Uniform activity is 0 everywhere.
func (s Spec) Activity(p mesh.Vec3) float64 {
	switch s.Kind {
	case CFL:
		// |axis × p|: the speed of solid-body rotation about the tilted
		// axis, 0 at the rotated poles, 1 on the rotated equator.
		axis := mesh.Vec3{X: math.Sin(s.Alpha), Y: 0, Z: math.Cos(s.Alpha)}
		return axis.Cross(p).Norm()
	case Hyperviscosity:
		lat, lon := mesh.LatLon(p)
		return math.Abs(math.Pow(math.Cos(lat), float64(s.Wavenumber)) *
			math.Cos(float64(s.Wavenumber)*lon))
	}
	return 0
}

// Weight maps a point's activity to an integer element cost in
// [1, round(Amp)]: 1 + round(activity * (Amp-1)).
func (s Spec) Weight(p mesh.Vec3) int64 { return s.weight(s.cflAxis(), p) }

var tieBand = 1e-9 // the guard's width per unit of max(1, |Amp−1|); tests widen it

// cflAxis is the CFL rotation axis (sin α, 0, cos α).
func (s Spec) cflAxis() mesh.Vec3 { return mesh.Vec3{X: math.Sin(s.Alpha), Z: math.Cos(s.Alpha)} }

// weight is Weight with the CFL axis computed once by the caller.
func (s Spec) weight(axis, p mesh.Vec3) int64 {
	switch s.Kind {
	case Uniform:
		return 1
	case CFL:
		return 1 + int64(math.Round(axis.Cross(p).Norm()*(s.Amp-1)))
	case Hyperviscosity:
		if w, ok := s.hv(p); ok {
			return w
		}
	}
	return 1 + int64(math.Round(s.Activity(p)*(s.Amp-1)))
}

// hv is the hyperviscosity weight from |Re((x+iy)^M)|; ok is false for a
// wavenumber outside [1, MaxWavenumber] and inside the half-integer guard.
func (s Spec) hv(p mesh.Vec3) (w int64, ok bool) {
	re, im := p.X, p.Y
	for j := 1; j < min(s.Wavenumber, MaxWavenumber); j++ {
		re, im = re*p.X-im*p.Y, re*p.Y+im*p.X
	}
	v, band := math.Abs(re)*(s.Amp-1), tieBand*math.Max(1, math.Abs(s.Amp-1))
	inRange := s.Wavenumber >= 1 && s.Wavenumber <= MaxWavenumber
	return 1 + int64(math.Round(v)), inRange && math.Abs(v-math.Floor(v)-0.5) > band // false for NaN, ±Inf
}

// Generate evaluates the spec at every element centre of m, indexed by
// mesh.ElemID; a Uniform spec returns nil, the "no weights" every weighted
// API accepts. Chunks fan out across goroutines, byte-identical at any
// GOMAXPROCS.
func (s Spec) Generate(m *mesh.Mesh) []int64 {
	if s.Kind == Uniform {
		return nil
	}
	ne, axis := m.Ne(), s.cflAxis()
	tan := make([]float64, ne) // tan[i]: ElemCenter's coordinate of column/row i
	for i := range tan {
		tan[i] = math.Tan(-math.Pi/4 + math.Pi/2*(float64(i)+0.5)/float64(ne))
	}
	w := make([]int64, m.NumElems())
	par.ForChunks(len(w), 1<<12, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			el := m.Elem(mesh.ElemID(e))
			w[e] = s.weight(axis, mesh.SpherePoint(el.Face, tan[el.I], tan[el.J]))
		}
	})
	return w
}

// Int32 converts a weight vector to the int32 vertex weights the graph and
// METIS layers use, failing on values outside [0, MaxInt32] rather than
// truncating silently.
func Int32(w []int64) ([]int32, error) {
	if w == nil {
		return nil, nil
	}
	out := make([]int32, len(w))
	if err := Int32Into(out, w); err != nil {
		return nil, err
	}
	return out, nil
}

// Int32Into is Int32 into dst, which is as long as w.
func Int32Into(dst []int32, w []int64) error {
	for i, v := range w {
		if v < 0 || v > math.MaxInt32 {
			return fmt.Errorf("weights: weight %d at position %d outside int32 range", v, i)
		}
		dst[i] = int32(v)
	}
	return nil
}
