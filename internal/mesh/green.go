package mesh

import "sync"

// GreenTab is a precomputed Green's-function multiplier table for an n³ mesh.
// Because the multiplier is real and even under per-axis mode folding
// (G(n−j) = G(j)), only the half-spectrum jz ∈ [0, n/2] is stored —
// n·n·(n/2+1) float64 — matching the r2c spectral layout exactly. Building
// it once replaces the per-cell sin/sinc evaluation of KGreenW inside every
// PM solve; at n=128 that is ~1.1 M transcendental-laden evaluations per
// step traded for a table lookup.
type GreenTab struct {
	n, nh int
	data  []float64 // (jx·n + jy)·(n/2+1) + jz, jz ∈ [0, n/2]
}

// NewGreenTab builds the table. Odd or degenerate sizes (n < 2) return nil:
// the folding identity jz ↦ n−jz needs an even n. The solvers accept only
// powers of two ≥ 2, so they always get a table.
func NewGreenTab(n int, l, g, rcut float64, deconvolve bool, order int) *GreenTab {
	if n < 2 || n%2 != 0 {
		return nil
	}
	nh := n/2 + 1
	t := &GreenTab{n: n, nh: nh, data: make([]float64, n*n*nh)}
	for jx := 0; jx < n; jx++ {
		for jy := 0; jy < n; jy++ {
			base := (jx*n + jy) * nh
			for jz := 0; jz < nh; jz++ {
				t.data[base+jz] = KGreenW(jx, jy, jz, n, l, g, rcut, deconvolve, order)
			}
		}
	}
	return t
}

// N returns the mesh size.
func (t *GreenTab) N() int { return t.n }

// At returns the multiplier for mode (jx, jy, jz) with jz ≤ n/2 — the
// half-spectrum index range of the r2c layout.
func (t *GreenTab) At(jx, jy, jz int) float64 {
	return t.data[(jx*t.n+jy)*t.nh+jz]
}

// Row returns the contiguous half-spectrum row for (jx, jy) — the inner-loop
// view used by the convolution kernels. The slice aliases the table; do not
// modify it.
func (t *GreenTab) Row(jx, jy int) []float64 {
	base := (jx*t.n + jy) * t.nh
	return t.data[base : base+t.nh]
}

// AtFull returns the multiplier for any full-range mode (jx, jy, jz),
// jz ∈ [0, n), folding jz > n/2 onto its mirror n−jz.
func (t *GreenTab) AtFull(jx, jy, jz int) float64 {
	if jz > t.n/2 {
		jz = t.n - jz
	}
	return t.data[(jx*t.n+jy)*t.nh+jz]
}

type greenKey struct {
	n          int
	l, g, rcut float64
	deconvolve bool
	order      int
}

var (
	greenMu    sync.Mutex
	greenCache = map[greenKey]*GreenTab{}
)

// GreenTable returns the cached table for the given parameters, building it
// on first use. Tables persist for the process lifetime, so repeated solver
// construction (every relay step rebuild, every test) pays the O(n³)
// evaluation once per parameter set. Returns nil when the size has no table
// (see NewGreenTab).
func GreenTable(n int, l, g, rcut float64, deconvolve bool, order int) *GreenTab {
	k := greenKey{n: n, l: l, g: g, rcut: rcut, deconvolve: deconvolve, order: order}
	greenMu.Lock()
	defer greenMu.Unlock()
	if t, ok := greenCache[k]; ok {
		return t
	}
	t := NewGreenTab(n, l, g, rcut, deconvolve, order)
	greenCache[k] = t
	return t
}
