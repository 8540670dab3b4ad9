// External test package: the in-package tests cannot import internal/ic
// (ic → sim → pmpar would be a cycle), but a clustered Zel'dovich
// realization is exactly the density contrast the r2c/complex parity claim
// must hold under, so this lives in pmpar_test instead.
package pmpar_test

import (
	"math"
	"testing"

	"greem/internal/cosmo"
	"greem/internal/domain"
	"greem/internal/ic"
	"greem/internal/mpi"
	"greem/internal/pmpar"
	"greem/internal/vec"
)

// TestRealMatchesComplexCosmologicalStep checks that the default r2c solve
// reproduces the complex reference path's accelerations to ≤1e-12 relative
// on a small cosmological step: a Zel'dovich-displaced 8³ lattice pushed
// through the relay solver on 8 ranks.
func TestRealMatchesComplexCosmologicalStep(t *testing.T) {
	parts, err := ic.Generate(ic.Config{
		NP: 8, NGrid: 16, L: 1,
		PS:    ic.PowerLaw{Amp: 1e-3, N: -1},
		Seed:  99,
		Model: cosmo.EdS(1), AInit: 0.1, TotalMass: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	np := len(parts)
	x := make([]float64, np)
	y := make([]float64, np)
	z := make([]float64, np)
	m := make([]float64, np)
	geo := domain.Uniform(2, 2, 2, 1.0)
	owner := make([][]int, geo.NumDomains())
	for i, p := range parts {
		x[i], y[i], z[i], m[i] = p.X, p.Y, p.Z, p.M
		r := geo.Find(vec.V3{X: x[i], Y: y[i], Z: z[i]})
		owner[r] = append(owner[r], i)
	}
	cfg := pmpar.Config{N: 16, L: 1, G: 1, Rcut: 3.0 / 16, NFFT: 4, Relay: true, Groups: 2}
	run := func(newSolver func(*mpi.Comm, pmpar.Config, vec.V3, vec.V3) (*pmpar.Solver, error)) (ax, ay, az []float64) {
		ax = make([]float64, np)
		ay = make([]float64, np)
		az = make([]float64, np)
		err := mpi.Run(geo.NumDomains(), func(c *mpi.Comm) {
			lo, hi := geo.Bounds(c.Rank())
			s, err := newSolver(c, cfg, lo, hi)
			if err != nil {
				panic(err)
			}
			ids := owner[c.Rank()]
			lx := make([]float64, len(ids))
			ly := make([]float64, len(ids))
			lz := make([]float64, len(ids))
			lm := make([]float64, len(ids))
			for k, id := range ids {
				lx[k], ly[k], lz[k], lm[k] = x[id], y[id], z[id], m[id]
			}
			lax := make([]float64, len(ids))
			lay := make([]float64, len(ids))
			laz := make([]float64, len(ids))
			s.Accel(lx, ly, lz, lm, lax, lay, laz)
			c.Barrier()
			for k, id := range ids {
				ax[id], ay[id], az[id] = lax[k], lay[k], laz[k]
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	rx, ry, rz := run(pmpar.New)
	cx, cy, cz := run(pmpar.NewComplexReference)
	var scale, worst float64
	for i := range rx {
		scale = math.Max(scale, math.Abs(cx[i])+math.Abs(cy[i])+math.Abs(cz[i]))
	}
	for i := range rx {
		d := math.Abs(rx[i]-cx[i]) + math.Abs(ry[i]-cy[i]) + math.Abs(rz[i]-cz[i])
		worst = math.Max(worst, d/scale)
	}
	if worst > 1e-12 {
		t.Errorf("cosmological step r2c vs complex: max rel diff %g > 1e-12", worst)
	}
}
