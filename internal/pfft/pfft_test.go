package pfft

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"greem/internal/fft"
	"greem/internal/mpi"
)

func TestLayoutInvariants(t *testing.T) {
	for _, c := range []struct{ n, p int }{{8, 1}, {8, 2}, {8, 3}, {8, 8}, {8, 12}, {16, 5}} {
		l := Layout{N: c.n, P: c.p}
		total := 0
		for r := 0; r < c.p; r++ {
			cnt := l.Count(r)
			if cnt < 0 {
				t.Fatalf("n=%d p=%d r=%d: negative count", c.n, c.p, r)
			}
			if l.Offset(r) != total {
				t.Fatalf("n=%d p=%d r=%d: offset %d, want %d", c.n, c.p, r, l.Offset(r), total)
			}
			for ix := l.Offset(r); ix < l.Offset(r)+cnt; ix++ {
				if l.OwnerOf(ix) != r {
					t.Fatalf("n=%d p=%d: OwnerOf(%d) = %d, want %d", c.n, c.p, ix, l.OwnerOf(ix), r)
				}
			}
			total += cnt
		}
		if total != c.n {
			t.Fatalf("n=%d p=%d: planes sum to %d", c.n, c.p, total)
		}
	}
}

// scatterGather runs the parallel transform on p ranks and compares against
// the serial 3-D FFT.
func runParallelForward(t *testing.T, n, p int, inverse bool) {
	rng := rand.New(rand.NewSource(int64(n*100 + p)))
	full := make([]complex128, n*n*n)
	for i := range full {
		full[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := append([]complex128(nil), full...)
	serial := fft.MustPlan3(n, n, n)
	if inverse {
		serial.Inverse(want)
	} else {
		serial.Forward(want)
	}

	got := make([]complex128, n*n*n)
	err := mpi.Run(p, func(c *mpi.Comm) {
		plan, err := NewPlan(c, n)
		if err != nil {
			panic(err)
		}
		local := make([]complex128, plan.LocalSize())
		off := plan.LocalOffset() * n * n
		copy(local, full[off:off+len(local)])
		if inverse {
			plan.Inverse(local)
		} else {
			plan.Forward(local)
		}
		copy(got[off:off+len(local)], local)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("n=%d p=%d: mismatch at %d: %v vs %v", n, p, i, got[i], want[i])
		}
	}
}

func TestForwardMatchesSerial(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 8} {
		runParallelForward(t, 8, p, false)
	}
	runParallelForward(t, 16, 5, false)
}

func TestInverseMatchesSerial(t *testing.T) {
	for _, p := range []int{1, 3, 8} {
		runParallelForward(t, 8, p, true)
	}
}

func TestMorePlanesThanRanksRoundTrip(t *testing.T) {
	// p > n leaves some ranks with zero planes; they must still participate.
	n, p := 4, 7
	rng := rand.New(rand.NewSource(1))
	full := make([]complex128, n*n*n)
	for i := range full {
		full[i] = complex(rng.NormFloat64(), 0)
	}
	got := make([]complex128, n*n*n)
	err := mpi.Run(p, func(c *mpi.Comm) {
		plan, err := NewPlan(c, n)
		if err != nil {
			panic(err)
		}
		local := make([]complex128, plan.LocalSize())
		off := plan.LocalOffset() * n * n
		copy(local, full[off:off+len(local)])
		plan.Forward(local)
		plan.Inverse(local)
		copy(got[off:off+len(local)], local)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if cmplx.Abs(got[i]-full[i]) > 1e-10 {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestNewPlanRejectsBadMesh(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) {
		if _, err := NewPlan(c, 12); err == nil {
			panic("accepted non-power-of-two")
		}
		if _, err := NewPlan(c, 1); err == nil {
			panic("accepted n = 1")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
