package pmpar

import (
	"testing"

	"greem/internal/mpi"
	"greem/internal/vec"
)

func TestRealMatchesComplexNaive(t *testing.T) {
	x, y, z, m, geo, owner := makeSystem(11, 300, 2, 2, 2)
	cfg := Config{N: 16, L: 1, G: 1, Rcut: 3.0 / 16, NFFT: 4}
	rx, ry, rz := runParallelPM(t, cfg, x, y, z, m, geo, owner)
	cx, cy, cz := runComplexPM(t, cfg, x, y, z, m, geo, owner)
	if d := maxRelDiff(rx, cx, ry, cy, rz, cz); d > 1e-12 {
		t.Errorf("naive r2c vs complex: max rel diff %g > 1e-12", d)
	}
}

func TestRealMatchesComplexRelay(t *testing.T) {
	x, y, z, m, geo, owner := makeSystem(12, 300, 2, 2, 2)
	cfg := Config{N: 16, L: 1, G: 1, Rcut: 3.0 / 16, NFFT: 2, Relay: true, Groups: 2}
	rx, ry, rz := runParallelPM(t, cfg, x, y, z, m, geo, owner)
	cx, cy, cz := runComplexPM(t, cfg, x, y, z, m, geo, owner)
	if d := maxRelDiff(rx, cx, ry, cy, rz, cz); d > 1e-12 {
		t.Errorf("relay r2c vs complex: max rel diff %g > 1e-12", d)
	}
}

func TestRealMatchesComplexPencil(t *testing.T) {
	x, y, z, m, geo, owner := makeSystem(13, 300, 2, 2, 2)
	cfg := Config{N: 16, L: 1, G: 1, Rcut: 3.0 / 16, Pencil: true, PY: 4, PZ: 2}
	rx, ry, rz := runParallelPM(t, cfg, x, y, z, m, geo, owner)
	cx, cy, cz := runComplexPM(t, cfg, x, y, z, m, geo, owner)
	if d := maxRelDiff(rx, cx, ry, cy, rz, cz); d > 1e-12 {
		t.Errorf("pencil r2c vs complex: max rel diff %g > 1e-12", d)
	}
}

// TestExchangePackZeroAllocs is the regression test for the per-step
// send-buffer allocations the conversions used to make: after one warm-up
// cycle, packing density and potential must not allocate.
func TestExchangePackZeroAllocs(t *testing.T) {
	x, y, z, m, geo, owner := makeSystem(14, 200, 2, 2, 1)
	cfg := Config{N: 8, L: 1, G: 1, Rcut: 3.0 / 8, NFFT: 4}
	err := mpi.Run(geo.NumDomains(), func(c *mpi.Comm) {
		lo, hi := geo.Bounds(c.Rank())
		s, err := New(c, cfg, lo, hi)
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
		ax := make([]float64, len(ids))
		ay := make([]float64, len(ids))
		az := make([]float64, len(ids))
		s.Accel(lx, ly, lz, lm, ax, ay, az) // warm up all buffers
		if allocs := testing.AllocsPerRun(10, func() { s.packDensity() }); allocs != 0 {
			t.Errorf("rank %d: packDensity allocates %v times per run", c.Rank(), allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { s.packPotential() }); allocs != 0 {
			t.Errorf("rank %d: packPotential allocates %v times per run", c.Rank(), allocs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRealReducesAlltoallBytes: at the full solver level the r2c path must
// move fewer all-to-all bytes than the complex path (the FFT transposes
// halve; the window conversions are unchanged).
func TestRealReducesAlltoallBytes(t *testing.T) {
	x, y, z, m, geo, owner := makeSystem(15, 300, 2, 2, 2)
	bytesFor := func(newSolver func(*mpi.Comm, Config, vec.V3, vec.V3) (*Solver, error)) int64 {
		cfg := Config{N: 16, L: 1, G: 1, Rcut: 3.0 / 16, NFFT: 8}
		var total int64
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
			ax := make([]float64, len(ids))
			ay := make([]float64, len(ids))
			az := make([]float64, len(ids))
			c.Traffic().Reset()
			s.Accel(lx, ly, lz, lm, ax, ay, az)
			c.Barrier()
			if c.Rank() == 0 {
				total = c.Traffic().TotalsByOp()["Alltoallv"].Bytes
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	full := bytesFor(NewComplexReference)
	half := bytesFor(New)
	if half >= full {
		t.Errorf("r2c Accel moved %d all-to-all bytes, complex %d — expected a reduction", half, full)
	}
	// The window conversions (unchanged between paths, and ghost-inflated at
	// this toy size) dominate the total, so only a modest end-to-end saving
	// shows here; the exact (n/2+1)/n transpose ratio is asserted in
	// pfft.TestRealTransposeBytesHalved. Still require a real dent, not a
	// rounding error.
	if float64(half) > 0.9*float64(full) {
		t.Errorf("r2c saved only %d of %d all-to-all bytes", full-half, full)
	}
}

// TestSpectrumTapCoversCubeOnce checks the SpecVisitor invariant directly on
// every FFT layout: across all FFT ranks the weights sum to N³, and the
// visited modes together with the conjugates that weight-2 visits stand for
// cover every mode of the full cube exactly once.
func TestSpectrumTapCoversCubeOnce(t *testing.T) {
	const n = 8
	x, y, z, m, geo, owner := makeSystem(16, 200, 2, 2, 2)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"naive", Config{NFFT: 4}},
		{"relay", Config{NFFT: 2, Relay: true, Groups: 2}},
		{"pencil", Config{Pencil: true, PY: 4, PZ: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.N, cfg.L, cfg.G, cfg.Rcut = n, 1, 1, 3.0/n
			// Per-rank tallies, merged after the run: visitors run on their
			// rank's goroutine.
			seen := make([][]int, geo.NumDomains())
			sumW := make([]int, geo.NumDomains())
			err := mpi.Run(geo.NumDomains(), func(c *mpi.Comm) {
				r := c.Rank()
				lo, hi := geo.Bounds(r)
				s, err := New(c, cfg, lo, hi)
				if err != nil {
					panic(err)
				}
				seen[r] = make([]int, n*n*n)
				s.ArmSpectrumTap(func(jx, jy, jz, w int, re, im float64) {
					sumW[r] += w
					seen[r][(jx*n+jy)*n+jz]++
					if w == 2 {
						seen[r][(((n-jx)%n)*n+(n-jy)%n)*n+(n-jz)%n]++
					}
				})
				ids := owner[r]
				lx := make([]float64, len(ids))
				ly := make([]float64, len(ids))
				lz := make([]float64, len(ids))
				lm := make([]float64, len(ids))
				for k, id := range ids {
					lx[k], ly[k], lz[k], lm[k] = x[id], y[id], z[id], m[id]
				}
				ax := make([]float64, len(ids))
				ay := make([]float64, len(ids))
				az := make([]float64, len(ids))
				s.Accel(lx, ly, lz, lm, ax, ay, az)
			})
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			count := make([]int, n*n*n)
			for r := range seen {
				total += sumW[r]
				for i, v := range seen[r] {
					count[i] += v
				}
			}
			if total != n*n*n {
				t.Errorf("Σw = %d, want N³ = %d", total, n*n*n)
			}
			for i, v := range count {
				if v != 1 {
					t.Fatalf("mode (%d,%d,%d) covered %d times, want 1", i/(n*n), i/n%n, i%n, v)
				}
			}
		})
	}
}
