package mesh

import (
	"fmt"
	"math/rand"
	"testing"
)

// parTestParticles returns a reproducible particle set inside [0, l).
func parTestParticles(np int, l float64) (x, y, z, m []float64) {
	rng := rand.New(rand.NewSource(99))
	x = make([]float64, np)
	y = make([]float64, np)
	z = make([]float64, np)
	m = make([]float64, np)
	for i := 0; i < np; i++ {
		x[i] = rng.Float64() * l
		y[i] = rng.Float64() * l
		z[i] = rng.Float64() * l
		m[i] = 0.5 + rng.Float64()
	}
	return
}

// TestAssignTSCWorkersBitIdentical: the plane-ownership parallel deposit must
// reproduce the serial density bit for bit at every worker count.
func TestAssignTSCWorkersBitIdentical(t *testing.T) {
	const n, np = 16, 500
	l := 1.0
	x, y, z, m := parTestParticles(np, l)

	ref, err := New(n, l, 1, 3.0/float64(n))
	if err != nil {
		t.Fatal(err)
	}
	ref.AssignTSC(x, y, z, m)

	for _, w := range []int{1, 2, 7} {
		pm, err := New(n, l, 1, 3.0/float64(n), WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		pm.AssignTSC(x, y, z, m)
		for i := range pm.Rho {
			if pm.Rho[i] != ref.Rho[i] {
				t.Fatalf("workers=%d: Rho[%d] = %v, serial %v (not bit-identical)", w, i, pm.Rho[i], ref.Rho[i])
			}
		}
		pm.Close()
	}
}

// TestAccelWorkersBitIdentical runs the full PM pipeline — assignment, r2c
// solve with convolution, differencing, interpolation — and demands
// bit-identical accelerations at Workers ∈ {1, 2, 7}.
func TestAccelWorkersBitIdentical(t *testing.T) {
	const n, np = 16, 400
	l := 1.0
	x, y, z, m := parTestParticles(np, l)

	run := func(w int) (ax, ay, az []float64, pm *PM) {
		var opts []Option
		if w > 0 {
			opts = append(opts, WithWorkers(w))
		}
		pm, err := New(n, l, 1, 3.0/float64(n), opts...)
		if err != nil {
			t.Fatal(err)
		}
		ax = make([]float64, np)
		ay = make([]float64, np)
		az = make([]float64, np)
		pm.Accel(x, y, z, m, ax, ay, az)
		return
	}

	rx, ry, rz, ref := run(0)
	for _, w := range []int{1, 2, 7} {
		ax, ay, az, pm := run(w)
		for i := 0; i < np; i++ {
			if ax[i] != rx[i] || ay[i] != ry[i] || az[i] != rz[i] {
				t.Fatalf("workers=%d: accel[%d] = (%v, %v, %v), serial (%v, %v, %v)",
					w, i, ax[i], ay[i], az[i], rx[i], ry[i], rz[i])
			}
		}
		// The meshes must match too (solve + convolution + differencing).
		for i := range pm.Phi {
			if pm.Phi[i] != ref.Phi[i] || pm.Fx[i] != ref.Fx[i] {
				t.Fatalf("workers=%d: mesh cell %d differs from serial", w, i)
			}
		}
		pm.Close()
	}
	ref.Close()
}

// TestInterpolatePotWorkersBitIdentical covers the potential diagnostic.
func TestInterpolatePotWorkersBitIdentical(t *testing.T) {
	const n, np = 8, 200
	l := 1.0
	x, y, z, m := parTestParticles(np, l)

	ref, err := New(n, l, 1, 3.0/float64(n))
	if err != nil {
		t.Fatal(err)
	}
	ref.Accel(x, y, z, m, make([]float64, np), make([]float64, np), make([]float64, np))
	want := make([]float64, np)
	ref.InterpolatePot(x, y, z, want)

	for _, w := range []int{2, 7} {
		pm, err := New(n, l, 1, 3.0/float64(n), WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		pm.Accel(x, y, z, m, make([]float64, np), make([]float64, np), make([]float64, np))
		got := make([]float64, np)
		pm.InterpolatePot(x, y, z, got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pot[%d] = %v, serial %v", w, i, got[i], want[i])
			}
		}
		pm.Close()
	}
}

// TestAccelZeroAllocs: the assignment/interpolation scratch is hoisted onto
// the PM struct, so a warm full-pipeline Accel must not allocate — serial
// and pooled alike.
func TestAccelZeroAllocs(t *testing.T) {
	const n, np = 16, 300
	l := 1.0
	x, y, z, m := parTestParticles(np, l)
	ax := make([]float64, np)
	ay := make([]float64, np)
	az := make([]float64, np)

	for _, w := range []int{0, 4} {
		pm, err := New(n, l, 1, 3.0/float64(n), WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		pm.Accel(x, y, z, m, ax, ay, az) // warm up: scratch + pool start
		if allocs := testing.AllocsPerRun(10, func() {
			pm.Accel(x, y, z, m, ax, ay, az)
		}); allocs != 0 {
			t.Errorf("workers=%d: warm Accel allocates %v objects per run, want 0", w, allocs)
		}
		pm.Close()
	}
}

// BenchmarkSolve128Workers is the bench-scaling target: the r2c Poisson
// solve at 1/2/4/8 workers (`make bench-scaling`).
func BenchmarkSolve128Workers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			benchSolve(b, 128, false, WithWorkers(w))
		})
	}
}
