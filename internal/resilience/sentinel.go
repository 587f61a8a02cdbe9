package resilience

import (
	"fmt"
	"math"
)

// NonFiniteError reports the first NaN or Inf found in the prognostic state:
// the field name, the owning element, and the point index inside it.
type NonFiniteError struct {
	Field string
	Elem  int
	Index int
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("resilience: non-finite %s at element %d point %d", e.Field, e.Elem, e.Index)
}

// SlabState is the prognostic state CheckFinite scans: three element-major
// slabs of PointsPerElem values an element. *seam.ShallowWater satisfies it.
type SlabState interface {
	StateSlabs() (v1, v2, phi []float64)
	PointsPerElem() int
}

// CheckFinite scans the prognostic slabs of sw and returns a
// *NonFiniteError for the first non-finite value, or nil when the whole
// state is finite. The scan order (v1, then v2, then phi, element-major) is
// fixed, so the reported location is deterministic.
func CheckFinite(sw SlabState) error {
	v1, v2, phi := sw.StateSlabs()
	npts := sw.PointsPerElem()
	for _, s := range []struct {
		name string
		slab []float64
	}{{"v1", v1}, {"v2", v2}, {"phi", phi}} {
		for i, x := range s.slab {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return &NonFiniteError{Field: s.name, Elem: i / npts, Index: i % npts}
			}
		}
	}
	return nil
}
