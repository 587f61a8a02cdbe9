package seam

import (
	"math"

	"sfccube/internal/mesh"
)

// TotalEnergy returns the shallow-water total energy
//
//	E = integral( Phi |u|^2 / 2 + Phi^2 / 2 ) dA
//
// (up to the constant 1/g), which the continuous equations conserve. Its
// drift is the standard stability diagnostic for vector-invariant cores.
func (sw *ShallowWater) TotalEnergy() float64 {
	g := sw.G
	var sum float64
	for i, phi := range sw.Phi {
		v1, v2 := sw.V1[i], sw.V2[i]
		u1 := g.GI11[i]*v1 + g.GI12[i]*v2
		u2 := g.GI12[i]*v1 + g.GI22[i]*v2
		ke := 0.5 * (u1*v1 + u2*v2)
		sum += (phi*ke + 0.5*phi*phi) * g.Mass[i]
	}
	return sum
}

// PotentialEnstrophy returns the integral of (zeta+f)^2 / (2 Phi), the
// second conserved quadratic invariant of the shallow-water system.
func (sw *ShallowWater) PotentialEnstrophy() float64 {
	g := sw.G
	npts := g.PointsPerElem()
	da := make([]float64, npts)
	db := make([]float64, npts)
	var sum float64
	for base := 0; base < len(sw.Phi); base += npts {
		g.DiffAlpha(sw.V2[base:base+npts], da)
		g.DiffBeta(sw.V1[base:base+npts], db)
		for i := 0; i < npts; i++ {
			zeta := (da[i] - db[i]) / g.SqrtG[base+i]
			q := zeta + g.Cor[base+i]
			if phi := sw.Phi[base+i]; phi > 0 {
				sum += q * q / (2 * phi) * g.Mass[base+i]
			}
		}
	}
	return sum
}

// Williamson2Rotated is Williamson et al. (1992) test case 2 with the flow
// axis tilted by angle alpha from the rotation axis (in the x-z plane):
// solid-body flow about axis n = (sin(alpha), 0, cos(alpha)) with the
// balancing geopotential
//
//	Phi = gh0 - (R*Omega*u0 + u0^2/2) * (p.n / R)^2 .
//
// The solution is steady for every alpha; alpha = pi/4 drives the flow
// straight over four cube corners and across every face, the strongest
// cross-face stress test of the metric and assembly terms.
func Williamson2Rotated(radius, omega, u0, gh0, alpha float64) (wind func(mesh.Vec3) mesh.Vec3, phi func(mesh.Vec3) float64) {
	n := mesh.Vec3{X: math.Sin(alpha), Y: 0, Z: math.Cos(alpha)}
	w := n.Scale(u0 / radius)
	wind = func(p mesh.Vec3) mesh.Vec3 { return w.Cross(p) }
	phi = func(p mesh.Vec3) float64 {
		s := p.Dot(n) / radius
		return gh0 - (radius*omega*u0+u0*u0/2)*s*s
	}
	return wind, phi
}
