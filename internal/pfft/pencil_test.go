package pfft

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"greem/internal/fft"
	"greem/internal/mpi"
)

// runPencil scatters a full cube into A pencils, transforms on py×pz ranks,
// gathers the C pencils, and compares with the serial transform.
func runPencil(t *testing.T, n, py, pz int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n*1000 + py*10 + pz)))
	full := make([]complex128, n*n*n)
	for i := range full {
		full[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := append([]complex128(nil), full...)
	fft.MustPlan3(n, n, n).Forward(want)

	got := make([]complex128, n*n*n)
	roundTrip := make([]complex128, n*n*n)
	err := mpi.Run(py*pz, func(c *mpi.Comm) {
		plan, err := NewPencilPlan(c, n, py, pz)
		if err != nil {
			panic(err)
		}
		yc, yo, zc, zo := plan.InDims()
		in := make([]complex128, plan.InSize())
		for ix := 0; ix < n; ix++ {
			for iy := 0; iy < yc; iy++ {
				for iz := 0; iz < zc; iz++ {
					in[(ix*yc+iy)*zc+iz] = full[(ix*n+(yo+iy))*n+(zo+iz)]
				}
			}
		}
		out := plan.Forward(in)
		xc, xo, yc2, yo2 := plan.OutDims()
		c.Barrier()
		for ix := 0; ix < xc; ix++ {
			for iy := 0; iy < yc2; iy++ {
				for iz := 0; iz < n; iz++ {
					got[((xo+ix)*n+(yo2+iy))*n+iz] = out[(ix*yc2+iy)*n+iz]
				}
			}
		}
		back := plan.Inverse(out)
		for ix := 0; ix < n; ix++ {
			for iy := 0; iy < yc; iy++ {
				for iz := 0; iz < zc; iz++ {
					roundTrip[(ix*n+(yo+iy))*n+(zo+iz)] = back[(ix*yc+iy)*zc+iz]
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("n=%d %dx%d: forward mismatch at %d: %v vs %v", n, py, pz, i, got[i], want[i])
		}
	}
	for i := range roundTrip {
		if cmplx.Abs(roundTrip[i]-full[i]) > 1e-10 {
			t.Fatalf("n=%d %dx%d: round-trip mismatch at %d", n, py, pz, i)
		}
	}
}

func TestPencilMatchesSerial(t *testing.T) {
	for _, c := range []struct{ n, py, pz int }{
		{8, 1, 1}, {8, 2, 2}, {8, 4, 2}, {8, 3, 2}, {8, 2, 3}, {16, 4, 4},
	} {
		runPencil(t, c.n, c.py, c.pz)
	}
}

func TestPencilMoreRanksThanSlabCould(t *testing.T) {
	// The point of pencils: more processes than mesh planes. n = 4 supports
	// at most 4 slab processes, but 4×4 = 16 pencil processes work.
	runPencil(t, 4, 4, 4)
}

func TestPencilValidation(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) {
		if _, err := NewPencilPlan(c, 12, 2, 2); err == nil {
			panic("non-power-of-two accepted")
		}
		if _, err := NewPencilPlan(c, 1, 2, 2); err == nil {
			panic("n = 1 accepted")
		}
		if _, err := NewPencilPlan(c, 8, 3, 2); err == nil {
			panic("grid mismatch accepted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
