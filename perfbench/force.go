package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"greem/internal/ewald"
	"greem/internal/ewtab"
	"greem/internal/sim"
	"greem/internal/vec"
)

// forceTolerance is the RMS relative force error the TreePM forces must stay
// within against Ewald: the bound internal/sim's TreePM-vs-Ewald tests
// (TestLETForcesAgainstEwald, TestFloat32ForcesAgainstEwald) assert.
const forceTolerance = 0.1

// Momentum bounds on |Σ m·v| / Σ m·|v| at the end of a run, one per
// workload, six to nine times the largest drift measured over 25 seeds.
// TreePM forces are not pairwise antisymmetric, so total momentum drifts at
// the level of the force error: 4·10⁻⁵–8·10⁻⁴ on clustered-pp, where the
// particles start at rest and fall into the clump; 4·10⁻⁹–2.3·10⁻⁷ on
// cosmo-pm's near-uniform early universe, where the scale Σ m·|v| is the
// bulk flow; 10⁻⁶–1.4·10⁻⁵ on served-job, whose 16 steps cover the whole
// z = 400 → 31 range with the float64 kernel.
const (
	momentumTolClustered = 5e-3
	momentumTolCosmo     = 2e-6
	momentumTolServed    = 1e-4
)

// forceSample is one sampled particle's total (PM + PP) acceleration as the
// simulation computed it.
type forceSample struct {
	ID         int64
	AX, AY, AZ float64
}

// sampleIDs picks k distinct particle IDs in [0, n), fixed by the seed.
func sampleIDs(seed int64, n, k int) map[int64]bool {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ids := make(map[int64]bool, k)
	for _, i := range rng.Perm(n)[:min(k, n)] {
		ids[int64(i)] = true
	}
	return ids
}

// ewaldPair returns the reference pair acceleration per unit source mass
// in the unit box (L = G = 1): the minimum-image Newtonian term with the
// simulation's Plummer softening eps2, plus internal/ewald's periodic-image
// correction, tabulated by internal/ewtab on a 16-interval octant grid from
// an Ewald solver tuned to α = 2.5/L, |n|∞ ≤ 1, |h| ≤ 3 (worst pair error
// 4·10⁻⁶ against the default tuning). Unsoftened and summed over a
// clustered set, the total forces agree with direct Ewald PairAccel sums to
// 10⁻⁸ RMS (TestEwaldPairMatchesDirect), at ≈0.1 µs a pair instead of 48.
// The softening matches the PP kernel's, so close pairs measure the TreePM
// approximation rather than the softening.
func ewaldPair(eps2 float64) (func(vec.V3) vec.V3, error) {
	tab, err := ewtab.New(1, 16, ewald.NewTuned(1, 1, 2.5, 1, 3))
	if err != nil {
		return nil, err
	}
	return func(d vec.V3) vec.V3 {
		d = vec.MinImage(vec.V3{}, d, 1)
		r2 := d.Norm2() + eps2
		return d.Scale(1 / (r2 * math.Sqrt(r2))).Add(tab.Correction(d))
	}, nil
}

// forceErrors is the sampled force error against the reference.
type forceErrors struct {
	// RMS is the metric force_rms_err: the RMS over the sample of each
	// particle's relative error |a−e|/|e|, taken over the 95 % of particles
	// with the smallest error. The dropped 5 % are particles whose force
	// nearly cancels, where a tiny absolute error is a large relative one;
	// left in, a handful of them set the figure.
	RMS float64
	// Global is sqrt(Σ|a−e|² / Σ|e|²), the convention of internal/sim's
	// Ewald tests. It is dominated by the few close pairs with the largest
	// forces, so it checks the tolerance but is too erratic across seeds
	// to be the metric.
	Global float64
}

// forceTrim is the share of the sample force_rms_err keeps.
const forceTrim = 0.95

// forceRMS compares the sampled accelerations with the reference e
// computed by summing pair over every other particle. all must be sorted by
// ID with IDs 0..N−1. The sum runs on GOMAXPROCS goroutines.
func forceRMS(all []sim.Particle, samples []forceSample, pair func(vec.V3) vec.V3) (forceErrors, error) {
	if len(samples) == 0 {
		return forceErrors{}, fmt.Errorf("no force samples")
	}
	ref := make([]vec.V3, len(samples))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(samples); k += workers {
				self := all[samples[k].ID]
				var a vec.V3
				for j := range all {
					if int64(j) == samples[k].ID {
						continue
					}
					d := vec.V3{X: all[j].X - self.X, Y: all[j].Y - self.Y, Z: all[j].Z - self.Z}
					a = a.Add(pair(d).Scale(all[j].M))
				}
				ref[k] = a
			}
		}(w)
	}
	wg.Wait()
	var e2, r2 float64
	rel2 := make([]float64, len(samples))
	for k, s := range samples {
		de := vec.V3{X: s.AX, Y: s.AY, Z: s.AZ}.Sub(ref[k]).Norm2()
		re := ref[k].Norm2()
		if re == 0 {
			return forceErrors{}, fmt.Errorf("reference force on particle %d vanishes", s.ID)
		}
		e2 += de
		r2 += re
		rel2[k] = de / re
	}
	sort.Float64s(rel2)
	keep := max(1, int(forceTrim*float64(len(rel2))))
	var sum float64
	for _, x := range rel2[:keep] {
		sum += x
	}
	return forceErrors{RMS: math.Sqrt(sum / float64(keep)), Global: math.Sqrt(e2 / r2)}, nil
}

// checkForces applies the tolerance to both error measures.
func checkForces(fe forceErrors, err error, what string, r *result) {
	r.check(err == nil && fe.RMS <= forceTolerance && fe.Global <= forceTolerance,
		"%s force error vs Ewald (RMS %.4g, global %.4g) exceeds %g (%v)", what, fe.RMS, fe.Global, forceTolerance, err)
}

// checkParticles verifies a gathered final state: the count is n, the IDs
// are exactly 0..n−1 (all is sorted by ID in place), and total momentum is
// conserved within tol of the momentum scale Σ m·|v|. It returns the
// relative momentum drift.
func checkParticles(all []sim.Particle, n int, tol float64, r *result) float64 {
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	r.check(len(all) == n, "particle count %d, want %d", len(all), n)
	idsOK := len(all) == n
	for i := range all {
		if all[i].ID != int64(i) {
			idsOK = false
			break
		}
	}
	r.check(idsOK, "particle IDs are not exactly 0..%d", n-1)
	var p vec.V3
	var scale float64
	for _, q := range all {
		v := vec.V3{X: q.VX, Y: q.VY, Z: q.VZ}
		p = p.Add(v.Scale(q.M))
		scale += q.M * v.Norm()
	}
	drift := ratio(p.Norm(), scale)
	r.check(drift <= tol, "momentum drift |Σmv|/Σm|v| = %.3g exceeds %g", drift, tol)
	return drift
}
