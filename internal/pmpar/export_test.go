package pmpar

import (
	"greem/internal/mesh"
	"greem/internal/mpi"
	"greem/internal/vec"
)

// complexPoisson is the complex-to-complex reference for fftAndGreen: the
// full spectrum through the plans' complex transforms, convolved with KGreenW
// evaluated per mode — twice the transform arithmetic and transpose volume of
// the production path, and none of its half-spectrum indexing.
func (s *Solver) complexPoisson() {
	n := s.cfg.N
	work := make([]complex128, len(s.slab))
	for i, v := range s.slab {
		work[i] = complex(v, 0)
	}
	// Both complex layouts are (x, y, z)-ordered with z complete.
	var x0, nx, y0, ny int
	if s.pencil != nil {
		nx, x0, ny, y0 = s.pencil.OutDims()
		work = s.pencil.Forward(work)
	} else {
		x0, nx, ny = s.plan.LocalOffset(), s.plan.LocalCount(), n
		s.plan.Forward(work)
	}
	for ix := 0; ix < nx; ix++ {
		for iy := 0; iy < ny; iy++ {
			base := (ix*ny + iy) * n
			for jz := 0; jz < n; jz++ {
				g := mesh.KGreenW(x0+ix, y0+iy, jz, n, s.cfg.L, s.cfg.G, s.cfg.Rcut, true, 3)
				work[base+jz] *= complex(g, 0)
			}
		}
	}
	if s.pencil != nil {
		work = s.pencil.Inverse(work)
	} else {
		s.plan.Inverse(work)
	}
	for i := range s.slab {
		s.slab[i] = real(work[i])
	}
}

// NewComplexReference is New with the complex-to-complex reference solve in
// place of the production real-to-complex one: the parity oracle.
func NewComplexReference(c *mpi.Comm, cfg Config, lo, hi vec.V3) (*Solver, error) {
	s, err := New(c, cfg, lo, hi)
	if err != nil {
		return nil, err
	}
	s.poisson = (*Solver).complexPoisson
	return s, nil
}
