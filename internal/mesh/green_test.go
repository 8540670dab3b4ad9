package mesh

import (
	"math"
	"math/rand"
	"testing"

	"greem/internal/fft"
)

func TestGreenTabMatchesKGreenW(t *testing.T) {
	n, l, g, rcut := 8, 1.0, 1.0, 3.0/8
	for _, order := range []int{2, 3} {
		for _, dec := range []bool{true, false} {
			tab := NewGreenTab(n, l, g, rcut, dec, order)
			if tab == nil {
				t.Fatalf("no table for n=%d", n)
			}
			for jx := 0; jx < n; jx++ {
				for jy := 0; jy < n; jy++ {
					for jz := 0; jz <= n/2; jz++ {
						want := KGreenW(jx, jy, jz, n, l, g, rcut, dec, order)
						if got := tab.At(jx, jy, jz); got != want {
							t.Fatalf("order=%d dec=%v At(%d,%d,%d) = %v, want %v", order, dec, jx, jy, jz, got, want)
						}
					}
				}
			}
		}
	}
}

// TestGreenTabAtFullFolds: for jz beyond n/2 the table folds onto the mirror
// mode, which must agree with direct evaluation (G is even per axis).
func TestGreenTabAtFullFolds(t *testing.T) {
	n, l, g, rcut := 8, 1.0, 1.0, 3.0/8
	tab := NewGreenTab(n, l, g, rcut, true, 3)
	for jx := 0; jx < n; jx++ {
		for jy := 0; jy < n; jy++ {
			for jz := 0; jz < n; jz++ {
				want := KGreenW(jx, jy, jz, n, l, g, rcut, true, 3)
				got := tab.AtFull(jx, jy, jz)
				if math.Abs(got-want) > 1e-15*math.Abs(want) {
					t.Fatalf("AtFull(%d,%d,%d) = %v, want %v", jx, jy, jz, got, want)
				}
			}
		}
	}
}

func TestGreenTabRejectsOddSizes(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7} {
		if tab := NewGreenTab(n, 1, 1, 0.3, true, 3); tab != nil {
			t.Errorf("NewGreenTab(n=%d) should be nil (direct-evaluation fallback)", n)
		}
	}
}

func TestGreenTableCachesAcrossCalls(t *testing.T) {
	a := GreenTable(16, 1, 1, 3.0/16, true, 3)
	b := GreenTable(16, 1, 1, 3.0/16, true, 3)
	if a == nil || a != b {
		t.Errorf("GreenTable did not return the cached instance (%p vs %p)", a, b)
	}
	c := GreenTable(16, 1, 1, 3.0/16, false, 3)
	if c == a {
		t.Error("different parameters must not share a table")
	}
}

// TestSolveRealMatchesComplex: the r2c half-spectrum solve must reproduce
// the full complex reference path's potential and accelerations to rounding.
func TestSolveRealMatchesComplex(t *testing.T) {
	n := 16
	rng := rand.New(rand.NewSource(42))
	np := 64
	x := make([]float64, np)
	y := make([]float64, np)
	z := make([]float64, np)
	m := make([]float64, np)
	for i := 0; i < np; i++ {
		x[i], y[i], z[i] = rng.Float64(), rng.Float64(), rng.Float64()
		m[i] = rng.Float64() + 0.5
	}
	pm, err := New(n, 1, 1, 3.0/float64(n))
	if err != nil {
		t.Fatal(err)
	}
	rx := make([]float64, np)
	ry := make([]float64, np)
	rz := make([]float64, np)
	pm.Accel(x, y, z, m, rx, ry, rz)
	// The same pipeline with the reference solve in place of Solve.
	cx := make([]float64, np)
	cy := make([]float64, np)
	cz := make([]float64, np)
	pm.Clear()
	pm.AssignTSC(x, y, z, m)
	newComplexSolve(t, pm).solve()
	pm.DiffForce()
	pm.InterpolateTSC(x, y, z, cx, cy, cz)
	var scale float64
	for i := range rx {
		scale = math.Max(scale, math.Abs(cx[i])+math.Abs(cy[i])+math.Abs(cz[i]))
	}
	for i := range rx {
		d := math.Abs(rx[i]-cx[i]) + math.Abs(ry[i]-cy[i]) + math.Abs(rz[i]-cz[i])
		if d/scale > 1e-12 {
			t.Fatalf("r2c vs complex acceleration mismatch at %d: rel %g", i, d/scale)
		}
	}
}

// complexSolve is the complex-to-complex reference for PM.Solve: the full
// spectrum through fft.Plan3, convolved with KGreenW evaluated per mode —
// twice the transform arithmetic and spectral memory of the r2c path, and
// none of its half-spectrum indexing. The multipliers are evaluated once, so
// the benchmarks time the transforms and the convolution only.
type complexSolve struct {
	pm    *PM
	plan  *fft.Plan3
	work  []complex128
	green []float64 // KGreenW for every mode of the full cube
}

func newComplexSolve(tb testing.TB, pm *PM) *complexSolve {
	n := pm.n
	plan, err := fft.NewPlan3(n, n, n)
	if err != nil {
		tb.Fatal(err)
	}
	c := &complexSolve{pm: pm, plan: plan, work: make([]complex128, n*n*n), green: make([]float64, n*n*n)}
	for jx := 0; jx < n; jx++ {
		for jy := 0; jy < n; jy++ {
			for jz := 0; jz < n; jz++ {
				c.green[(jx*n+jy)*n+jz] = KGreenW(jx, jy, jz, n, pm.l, pm.g, pm.rcut, pm.deconvolve, pm.order)
			}
		}
	}
	return c
}

// solve turns pm.Rho into pm.Phi.
func (c *complexSolve) solve() {
	for i, r := range c.pm.Rho {
		c.work[i] = complex(r, 0)
	}
	c.plan.Forward(c.work)
	for i, g := range c.green {
		c.work[i] *= complex(g, 0)
	}
	c.plan.Inverse(c.work)
	for i := range c.pm.Phi {
		c.pm.Phi[i] = real(c.work[i])
	}
}

func BenchmarkSolve128Real(b *testing.B) { benchSolve(b, 128, false) }

func BenchmarkSolve128Complex(b *testing.B) { benchSolve(b, 128, true) }

func BenchmarkSolve64Real(b *testing.B) { benchSolve(b, 64, false) }

func BenchmarkSolve64Complex(b *testing.B) { benchSolve(b, 64, true) }

// benchSolve times PM.Solve, or the complex reference solve when reference
// is set, on a random density.
func benchSolve(b *testing.B, n int, reference bool, opts ...Option) {
	pm, err := New(n, 1, 1, 3.0/float64(n), opts...)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := range pm.Rho {
		pm.Rho[i] = rng.Float64()
	}
	solve := pm.Solve
	if reference {
		solve = newComplexSolve(b, pm).solve
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
	// ~2.5 n³ log2(n³) real flops for the r2c transform pair plus the
	// convolution — report rate so before/after Gflops lands in EXPERIMENTS.
	n3 := float64(n) * float64(n) * float64(n)
	flops := 2.5 * n3 * 3 * math.Log2(float64(n))
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflops")
}
