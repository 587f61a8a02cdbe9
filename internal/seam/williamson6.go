package seam

import (
	"math"

	"sfccube/internal/mesh"
)

// Williamson6 returns the initial wind and geopotential of Williamson et
// al. (1992) test case 6: the wavenumber-4 Rossby-Haurwitz wave, the
// standard unsteady validation workload for shallow-water cores. The wave
// pattern translates eastward while (in the continuous system) conserving
// mass, energy and potential enstrophy -- which is how the discrete core is
// checked, since no closed-form time-dependent solution exists.
//
// Parameters follow the paper: angular velocities omega = kk = 7.848e-6 1/s,
// wavenumber r = 4, mean height h0 = 8000 m.
func Williamson6(radius, rotOmega float64) (wind func(mesh.Vec3) mesh.Vec3, phi func(mesh.Vec3) float64) {
	const (
		w  = 7.848e-6
		kk = 7.848e-6
		r  = 4.0
		h0 = 8000.0
		g  = 9.80616 // gravitational acceleration, m/s^2
	)
	a := radius

	wind = func(p mesh.Vec3) mesh.Vec3 {
		lat, lon := mesh.LatLon(p.Scale(1 / a))
		cl, sl := math.Cos(lat), math.Sin(lat)
		cr := math.Pow(cl, r-1)
		u := a*w*cl + a*kk*cr*(r*sl*sl-cl*cl)*math.Cos(r*lon)
		v := -a * kk * r * cr * sl * math.Sin(r*lon)
		// Convert (u east, v north) to a 3-D tangent vector.
		east := mesh.Vec3{X: -math.Sin(lon), Y: math.Cos(lon), Z: 0}
		north := mesh.Vec3{X: -sl * math.Cos(lon), Y: -sl * math.Sin(lon), Z: cl}
		return east.Scale(u).Add(north.Scale(v))
	}
	phi = func(p mesh.Vec3) float64 {
		lat, lon := mesh.LatLon(p.Scale(1 / a))
		c := math.Cos(lat)
		c2 := c * c
		cr := math.Pow(c, r)
		c2r := cr * cr
		aT := w*(2*rotOmega+w)*c2/2 +
			kk*kk*c2r/4*((r+1)*c2+(2*r*r-r-2)-2*r*r/c2)
		bT := 2 * (rotOmega + w) * kk / ((r + 1) * (r + 2)) * cr *
			((r*r + 2*r + 2) - (r+1)*(r+1)*c2)
		cT := kk * kk * c2r / 4 * ((r+1)*c2 - (r + 2))
		return g*h0 + a*a*(aT+bT*math.Cos(r*lon)+cT*math.Cos(2*r*lon))
	}
	return wind, phi
}
