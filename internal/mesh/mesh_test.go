package mesh

import (
	"math"
	"math/rand"
	"testing"

	"greem/internal/direct"
	"greem/internal/ewald"
	"greem/internal/ppkern"
	"greem/internal/vec"
)

func TestS2HatLimits(t *testing.T) {
	if s := S2Hat(0); s != 1 {
		t.Errorf("S2Hat(0) = %v, want 1", s)
	}
	// Continuity across the Taylor/exact switch at u = 0.5.
	lo, hi := S2Hat(0.5-1e-9), S2Hat(0.5+1e-9)
	if math.Abs(lo-hi) > 1e-8 {
		t.Errorf("S2Hat discontinuous at switch: %v vs %v", lo, hi)
	}
	// Decay: at large u the envelope falls like 12/u^3.
	if s := S2Hat(100); math.Abs(s) > 24.0/(100*100*100)*2 {
		t.Errorf("S2Hat(100) = %v, decays too slowly", s)
	}
}

func TestKGreenZeroMode(t *testing.T) {
	if g := KGreen(0, 0, 0, 16, 1, 1, 0.1, true); g != 0 {
		t.Errorf("k=0 mode = %v, want 0", g)
	}
}

func TestKGreenSymmetry(t *testing.T) {
	// G̃ must be symmetric under j → n−j (reality of the potential) and
	// under axis permutations.
	n := 16
	for _, j := range [][3]int{{1, 2, 3}, {5, 0, 7}, {3, 3, 1}} {
		a := KGreen(j[0], j[1], j[2], n, 1, 1, 0.1, true)
		b := KGreen((n-j[0])%n, (n-j[1])%n, (n-j[2])%n, n, 1, 1, 0.1, true)
		if math.Abs(a-b) > 1e-15*math.Abs(a) {
			t.Errorf("conjugate-mode asymmetry at %v: %v vs %v", j, a, b)
		}
		c := KGreen(j[2], j[0], j[1], n, 1, 1, 0.1, true)
		if math.Abs(a-c) > 1e-15*math.Abs(a) {
			t.Errorf("permutation asymmetry at %v: %v vs %v", j, a, c)
		}
	}
}

func TestKGreenNegativeAndSuppressed(t *testing.T) {
	// All nonzero modes are negative (attractive) and high-k modes are
	// strongly suppressed by S̃2².
	n := 64
	low := KGreen(1, 0, 0, n, 1, 1, 3.0/float64(n), true)
	if low >= 0 {
		t.Errorf("low-k Green %v, want < 0", low)
	}
	hi := KGreen(n/2, n/2, n/2, n, 1, 1, 3.0/float64(n), true)
	if math.Abs(hi) > 1e-3*math.Abs(low) {
		t.Errorf("high-k mode not suppressed: %v vs low %v", hi, low)
	}
}

func TestTSCWeightsPartitionOfUnity(t *testing.T) {
	pm, err := New(16, 1, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 0.013, 0.031249, 0.03125, 0.5, 0.999} {
		_, w := pm.tsc(x)
		s := w[0] + w[1] + w[2]
		if math.Abs(s-1) > 1e-14 {
			t.Errorf("TSC weights at x=%v sum to %v", x, s)
		}
		for _, wi := range w {
			if wi < -1e-15 || wi > 0.75+1e-15 {
				t.Errorf("TSC weight out of range at x=%v: %v", x, w)
			}
		}
	}
}

func TestAssignConservesMass(t *testing.T) {
	pm, _ := New(16, 1, 1, 0.1)
	rng := rand.New(rand.NewSource(1))
	n := 100
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	m := make([]float64, n)
	var totM float64
	for i := range x {
		x[i], y[i], z[i] = rng.Float64(), rng.Float64(), rng.Float64()
		m[i] = rng.Float64() + 0.1
		totM += m[i]
	}
	pm.Clear()
	pm.AssignTSC(x, y, z, m)
	var sum float64
	for _, r := range pm.Rho {
		sum += r
	}
	h := pm.CellSize()
	sum *= h * h * h
	if math.Abs(sum-totM)/totM > 1e-12 {
		t.Errorf("assigned mass %v, want %v", sum, totM)
	}
}

func TestPMSelfForceVanishes(t *testing.T) {
	// A single particle must feel (almost) no force from its own mesh image:
	// the TSC assign/interpolate pair with central differencing is
	// antisymmetric.
	pm, _ := New(32, 1, 1, 3.0/32)
	x := []float64{0.37}
	y := []float64{0.61}
	z := []float64{0.13}
	m := []float64{1}
	ax := make([]float64, 1)
	ay := make([]float64, 1)
	az := make([]float64, 1)
	pm.Accel(x, y, z, m, ax, ay, az)
	// Scale: the typical PM pair force at r = rcut/2 would be ~1/r² ≈ 450.
	if math.Abs(ax[0]) > 1e-8 || math.Abs(ay[0]) > 1e-8 || math.Abs(az[0]) > 1e-8 {
		t.Errorf("self-force = (%v, %v, %v)", ax[0], ay[0], az[0])
	}
}

func TestPMMomentumConservation(t *testing.T) {
	pm, _ := New(32, 1, 1, 3.0/32)
	rng := rand.New(rand.NewSource(2))
	n := 50
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	m := make([]float64, n)
	for i := range x {
		x[i], y[i], z[i], m[i] = rng.Float64(), rng.Float64(), rng.Float64(), 1
	}
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	pm.Accel(x, y, z, m, ax, ay, az)
	var px, py, pz, scale float64
	for i := range x {
		px += m[i] * ax[i]
		py += m[i] * ay[i]
		pz += m[i] * az[i]
		scale += m[i] * (math.Abs(ax[i]) + math.Abs(ay[i]) + math.Abs(az[i]))
	}
	if scale == 0 {
		t.Fatal("no forces computed")
	}
	if math.Abs(px)+math.Abs(py)+math.Abs(pz) > 1e-8*scale {
		t.Errorf("net momentum (%v,%v,%v), scale %v", px, py, pz, scale)
	}
}

func TestPMPairForceMatchesLongRangeFraction(t *testing.T) {
	// For two particles at separation r, PP(g) + PM must reproduce the exact
	// Ewald pair force. At the paper's operating point rcut = 3 mesh cells
	// the residual mesh-scale error near r ≈ rcut is a few percent of the
	// total (TSC aliasing + 4-point differencing); it falls off steeply at
	// larger separations. Tolerances encode that error budget (measured
	// worst cases ~8%, 8%, 1.3%, 0.5%, 0.03%).
	nmesh := 64
	l := 1.0
	rcut := 3.0 / float64(nmesh) * l
	pm, _ := New(nmesh, l, 1, rcut)
	ew := ewald.New(l, 1)

	cases := []struct{ frac, relTol float64 }{
		{0.5, 0.12}, {0.8, 0.12}, {1.2, 0.05}, {2, 0.02}, {4, 0.005},
	}
	for _, c := range cases {
		r := c.frac * rcut
		x := []float64{0.5 - r/2, 0.5 + r/2}
		y := []float64{0.5, 0.5}
		z := []float64{0.5, 0.5}
		m := []float64{1, 1}
		ax := make([]float64, 2)
		ay := make([]float64, 2)
		az := make([]float64, 2)
		pm.Accel(x, y, z, m, ax, ay, az)
		exact := ew.PairAccel(vec.V3{X: r}).X
		short := ppkern.GP3M(2*r/rcut) / (r * r)
		total := ax[0] + short
		if rel := math.Abs(total-exact) / exact; rel > c.relTol {
			t.Errorf("r=%.2f·rcut: PP+PM %v vs Ewald %v (rel err %.4f > %v)",
				c.frac, total, exact, rel, c.relTol)
		}
	}
}

func TestPMConvergesWithMeshRefinement(t *testing.T) {
	// With rcut held fixed in physical units, refining the mesh must drive
	// the PP+PM vs Ewald error to zero rapidly: this isolates mesh
	// discretization from the force split and proves the Green's function is
	// exactly the complement of eq. 3. Measured: 2.0e-2 → 1.7e-3 → 1.1e-4.
	l := 1.0
	rcut := 3.0 / 16
	ew := ewald.New(l, 1)
	rng := rand.New(rand.NewSource(3))
	n := 24
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	m := make([]float64, n)
	for i := range x {
		x[i], y[i], z[i], m[i] = rng.Float64(), rng.Float64(), rng.Float64(), 1.0
	}
	rx := make([]float64, n)
	ry := make([]float64, n)
	rz := make([]float64, n)
	ew.Accel(x, y, z, m, rx, ry, rz)
	rms := func(nmesh int) float64 {
		pm, _ := New(nmesh, l, 1, rcut)
		ax := make([]float64, n)
		ay := make([]float64, n)
		az := make([]float64, n)
		pm.Accel(x, y, z, m, ax, ay, az)
		direct.AccelCutoff(x, y, z, m, 1, l, rcut, 0, ax, ay, az)
		var e2, r2 float64
		for i := 0; i < n; i++ {
			dx := ax[i] - rx[i]
			dy := ay[i] - ry[i]
			dz := az[i] - rz[i]
			e2 += dx*dx + dy*dy + dz*dz
			r2 += rx[i]*rx[i] + ry[i]*ry[i] + rz[i]*rz[i]
		}
		return math.Sqrt(e2 / r2)
	}
	e16, e32, e64 := rms(16), rms(32), rms(64)
	t.Logf("RMS error: n=16 %.2e, n=32 %.2e, n=64 %.2e", e16, e32, e64)
	if e32 > e16/3 || e64 > e32/3 {
		t.Errorf("no convergence: %v, %v, %v", e16, e32, e64)
	}
	if e64 > 1e-3 {
		t.Errorf("converged error %v too large", e64)
	}
}

func TestTreePMTotalMatchesEwald(t *testing.T) {
	// The headline invariant: short-range direct cutoff + PM long-range must
	// reproduce the exact Ewald force. The paper's operating point
	// N_PM = N/2³..N/4³ with rcut = 3·L/N_PM^(1/3) gives RMS errors well
	// below a percent.
	nmesh := 32
	l := 1.0
	rcut := 3.0 * l / float64(nmesh)
	pm, _ := New(nmesh, l, 1, rcut)
	ew := ewald.New(l, 1)
	rng := rand.New(rand.NewSource(3))
	n := 24
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	m := make([]float64, n)
	for i := range x {
		x[i], y[i], z[i], m[i] = rng.Float64(), rng.Float64(), rng.Float64(), 1.0
	}
	ax := make([]float64, n)
	ay := make([]float64, n)
	az := make([]float64, n)
	pm.Accel(x, y, z, m, ax, ay, az)
	direct.AccelCutoff(x, y, z, m, 1, l, rcut, 0, ax, ay, az)

	rx := make([]float64, n)
	ry := make([]float64, n)
	rz := make([]float64, n)
	ew.Accel(x, y, z, m, rx, ry, rz)

	var sumErr2, sumRef2 float64
	for i := 0; i < n; i++ {
		dx := ax[i] - rx[i]
		dy := ay[i] - ry[i]
		dz := az[i] - rz[i]
		sumErr2 += dx*dx + dy*dy + dz*dz
		sumRef2 += rx[i]*rx[i] + ry[i]*ry[i] + rz[i]*rz[i]
	}
	rms := math.Sqrt(sumErr2 / sumRef2)
	// At rcut = 3 mesh cells the mesh-scale discretization error for a
	// sparse random configuration (where nearly all of the force is
	// long-range) is ~6% RMS with 4-point differencing (measured 5.8e-2).
	if rms > 0.10 {
		t.Errorf("TreePM vs Ewald RMS force error %v, want < 10%%", rms)
	}
	t.Logf("RMS force error vs Ewald: %.3e", rms)

	// Spectral differentiation (ablation) must do better (measured 1.9e-2).
	pmSpec, _ := New(nmesh, l, 1, rcut, WithSpectralDifferentiation())
	for i := range ax {
		ax[i], ay[i], az[i] = 0, 0, 0
	}
	pmSpec.Accel(x, y, z, m, ax, ay, az)
	direct.AccelCutoff(x, y, z, m, 1, l, rcut, 0, ax, ay, az)
	sumErr2 = 0
	for i := 0; i < n; i++ {
		dx := ax[i] - rx[i]
		dy := ay[i] - ry[i]
		dz := az[i] - rz[i]
		sumErr2 += dx*dx + dy*dy + dz*dz
	}
	rmsSpec := math.Sqrt(sumErr2 / sumRef2)
	t.Logf("RMS force error (spectral) vs Ewald: %.3e", rmsSpec)
	if rmsSpec > 0.04 {
		t.Errorf("spectral TreePM RMS error %v, want < 4%%", rmsSpec)
	}
}

func TestDeconvolutionImprovesAccuracy(t *testing.T) {
	// Ablation: switching the TSC window deconvolution off must not improve
	// the pair-force accuracy (it systematically weakens mid-k forces).
	nmesh := 32
	l := 1.0
	rcut := 3.0 * l / float64(nmesh)
	ew := ewald.New(l, 1)
	rng := rand.New(rand.NewSource(4))
	n := 16
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	m := make([]float64, n)
	for i := range x {
		x[i], y[i], z[i], m[i] = rng.Float64(), rng.Float64(), rng.Float64(), 1.0
	}
	rx := make([]float64, n)
	ry := make([]float64, n)
	rz := make([]float64, n)
	ew.Accel(x, y, z, m, rx, ry, rz)

	rms := func(opts ...Option) float64 {
		pm, _ := New(nmesh, l, 1, rcut, opts...)
		ax := make([]float64, n)
		ay := make([]float64, n)
		az := make([]float64, n)
		pm.Accel(x, y, z, m, ax, ay, az)
		direct.AccelCutoff(x, y, z, m, 1, l, rcut, 0, ax, ay, az)
		var e2, r2 float64
		for i := 0; i < n; i++ {
			dx := ax[i] - rx[i]
			dy := ay[i] - ry[i]
			dz := az[i] - rz[i]
			e2 += dx*dx + dy*dy + dz*dz
			r2 += rx[i]*rx[i] + ry[i]*ry[i] + rz[i]*rz[i]
		}
		return math.Sqrt(e2 / r2)
	}
	with := rms()
	without := rms(WithoutDeconvolution())
	t.Logf("RMS error with deconvolution %.3e, without %.3e", with, without)
	if with > without*1.5 {
		t.Errorf("deconvolution made things much worse: %v vs %v", with, without)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(12, 1, 1, 0.1); err == nil {
		t.Error("non-power-of-two mesh accepted")
	}
	if _, err := New(1, 1, 1, 0.1); err == nil {
		t.Error("n = 1 mesh accepted")
	}
	if _, err := New(16, -1, 1, 0.1); err == nil {
		t.Error("negative box accepted")
	}
	if _, err := New(16, 1, 1, 0); err == nil {
		t.Error("zero rcut accepted")
	}
}

func TestCICMassConservationAndWeights(t *testing.T) {
	pm, _ := New(16, 1, 1, 0.1, WithCIC())
	// Weights sum to one everywhere.
	for _, x := range []float64{0, 0.013, 0.031249, 0.5, 0.999} {
		_, w := pm.tsc(x)
		if math.Abs(w[0]+w[1]+w[2]-1) > 1e-14 {
			t.Errorf("CIC weights at %v sum to %v", x, w[0]+w[1]+w[2])
		}
		if w[2] != 0 {
			t.Errorf("CIC third weight nonzero at %v", x)
		}
	}
	rng := rand.New(rand.NewSource(1))
	n := 50
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	m := make([]float64, n)
	var tot float64
	for i := range x {
		x[i], y[i], z[i], m[i] = rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
		tot += m[i]
	}
	pm.Clear()
	pm.AssignTSC(x, y, z, m)
	var sum float64
	for _, r := range pm.Rho {
		sum += r
	}
	h := pm.CellSize()
	if math.Abs(sum*h*h*h-tot)/tot > 1e-12 {
		t.Errorf("CIC mass %v, want %v", sum*h*h*h, tot)
	}
}

func TestCICAblationVsTSC(t *testing.T) {
	// TSC (the paper's choice) must be at least as accurate as CIC at the
	// operating point; both must land in the same error regime.
	nmesh := 32
	l := 1.0
	rcut := 3.0 / float64(nmesh)
	ew := ewald.New(l, 1)
	rng := rand.New(rand.NewSource(7))
	n := 20
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	m := make([]float64, n)
	for i := range x {
		x[i], y[i], z[i], m[i] = rng.Float64(), rng.Float64(), rng.Float64(), 1.0
	}
	rx := make([]float64, n)
	ry := make([]float64, n)
	rz := make([]float64, n)
	ew.Accel(x, y, z, m, rx, ry, rz)
	rms := func(opts ...Option) float64 {
		pm, _ := New(nmesh, l, 1, rcut, opts...)
		ax := make([]float64, n)
		ay := make([]float64, n)
		az := make([]float64, n)
		pm.Accel(x, y, z, m, ax, ay, az)
		direct.AccelCutoff(x, y, z, m, 1, l, rcut, 0, ax, ay, az)
		var e2, r2 float64
		for i := 0; i < n; i++ {
			dx := ax[i] - rx[i]
			dy := ay[i] - ry[i]
			dz := az[i] - rz[i]
			e2 += dx*dx + dy*dy + dz*dz
			r2 += rx[i]*rx[i] + ry[i]*ry[i] + rz[i]*rz[i]
		}
		return math.Sqrt(e2 / r2)
	}
	tsc := rms()
	cic := rms(WithCIC())
	t.Logf("RMS force error: TSC %.3e, CIC %.3e", tsc, cic)
	if cic > 10*tsc {
		t.Errorf("CIC error implausibly large: %v vs TSC %v", cic, tsc)
	}
	if tsc > 2*cic {
		t.Errorf("TSC (%v) should not be clearly worse than CIC (%v)", tsc, cic)
	}
}
