package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"greem/internal/analysis"
	"greem/internal/sim"
	"greem/internal/snapshot"
	"greem/internal/store"
)

// Product kinds served under /runs/{id}/products/{kind}. Every product
// derives deterministically from the job's final snapshot, so each
// (job, kind, parameters) triple has one canonical byte string — which is
// what makes the content-addressed cache and the singleflight sound.
const (
	ProductSnapshot = "snapshot" // raw snapshot binary, optionally an index slice
	ProductHalos    = "halos"    // FoF halo catalog, canonical JSON
	ProductPk       = "pk"       // matter power spectrum, canonical JSON
	ProductDensity  = "density"  // projected surface density, PGM image
)

// ProductRequest names one product of one run. Zero-valued parameters
// select defaults at compute time; the canonical key encodes the request
// as made, so distinct parameterizations cache independently.
type ProductRequest struct {
	Kind string

	Lo, Hi int // snapshot: particle index range [lo, hi); 0,0 ⇒ all

	B       float64 // halos: linking length in mean-separation units; 0 ⇒ 0.2
	MinSize int     // halos: smallest group reported; 0 ⇒ 8

	NMesh int // pk: assignment mesh per side, a power of two in [2, 512]; 0 ⇒ the run's PM mesh
	NBins int // pk: k bins; 0 ⇒ 16

	NPix int // density: image pixels per side; 0 ⇒ 64
}

// Key returns the canonical cache key for the request, validating the
// parameters. Keys are single store-name path elements.
func (r ProductRequest) Key() (string, error) {
	switch r.Kind {
	case ProductSnapshot:
		if r.Lo < 0 || r.Hi < 0 || (r.Hi != 0 && r.Hi <= r.Lo) {
			return "", fmt.Errorf("serve: bad snapshot slice [%d, %d)", r.Lo, r.Hi)
		}
		return fmt.Sprintf("snapshot-%d-%d", r.Lo, r.Hi), nil
	case ProductHalos:
		if r.B < 0 || r.B > 1 {
			return "", fmt.Errorf("serve: linking parameter b=%g outside (0, 1]", r.B)
		}
		if r.MinSize < 0 || r.MinSize > 1<<20 {
			return "", fmt.Errorf("serve: min_size %d out of range", r.MinSize)
		}
		return "halos-b" + canonFloat(r.B) + "-min" + strconv.Itoa(r.MinSize), nil
	case ProductPk:
		badMesh := r.NMesh != 0 && (r.NMesh < 2 || r.NMesh > 512 || r.NMesh&(r.NMesh-1) != 0)
		if badMesh || r.NBins < 0 || r.NBins > 4096 {
			return "", fmt.Errorf("serve: pk parameters nmesh=%d nbins=%d out of range", r.NMesh, r.NBins)
		}
		return fmt.Sprintf("pk-n%d-b%d", r.NMesh, r.NBins), nil
	case ProductDensity:
		if r.NPix < 0 || r.NPix > 4096 {
			return "", fmt.Errorf("serve: density n %d out of range", r.NPix)
		}
		return fmt.Sprintf("density-n%d", r.NPix), nil
	}
	return "", fmt.Errorf("serve: unknown product kind %q", r.Kind)
}

// ContentType is the HTTP content type of the product bytes.
func (r ProductRequest) ContentType() string {
	switch r.Kind {
	case ProductHalos, ProductPk:
		return "application/json"
	case ProductDensity:
		return "image/x-portable-graymap"
	}
	return "application/octet-stream"
}

// canonFloat formats a parameter float canonically (shortest round-trip
// form), so 0.2 and 0.20 name the same cache entry.
func canonFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Products computes, caches and deduplicates derived data products. All
// requests funnel through a singleflight keyed by (job, product key): the
// leader either fetches the cached blob (one store read) or computes the
// product from the final snapshot and stores it; every concurrent duplicate
// waits and shares the leader's bytes.
type Products struct {
	store  store.Store
	index  Index
	flight *Flight

	// opTimeout bounds the leader's store work. The leader runs detached
	// from any single caller's deadline (its result serves every waiter),
	// so it needs its own bound.
	opTimeout time.Duration

	// The stale cache holds the last known-good bytes per product, served
	// when the store is unavailable (breaker open): a degraded read beats a
	// 5xx for immutable derived data. Bounded FIFO.
	mu          sync.Mutex
	cache       map[string][]byte
	order       []string
	staleServed atomic.Int64
}

// productCacheEntries bounds the stale cache.
const productCacheEntries = 128

// NewProducts wires the product plane over a store and an index.
func NewProducts(st store.Store, idx Index) *Products {
	return &Products{store: st, index: idx, flight: NewFlight(),
		opTimeout: 30 * time.Second, cache: make(map[string][]byte)}
}

// StaleServed returns how many requests were answered from the stale cache
// while the store was unavailable.
func (p *Products) StaleServed() int64 { return p.staleServed.Load() }

func (p *Products) remember(key string, b []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.cache[key]; !ok {
		p.order = append(p.order, key)
		for len(p.order) > productCacheEntries {
			delete(p.cache, p.order[0])
			p.order = p.order[1:]
		}
	}
	p.cache[key] = b
}

func (p *Products) recall(key string) ([]byte, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.cache[key]
	return b, ok
}

// Get returns the product bytes for the request, computing and caching on
// first use. shared reports whether this call rode an in-flight duplicate.
// The returned slice is shared across callers — treat it as read-only.
func (p *Products) Get(job JobInfo, req ProductRequest) (data []byte, shared bool, err error) {
	data, shared, _, err = p.GetCtx(context.Background(), job, req)
	return data, shared, err
}

// GetCtx is Get with caller cancellation and graceful degradation: a caller
// whose ctx dies stops waiting immediately (the leader's work continues for
// the others), and when the store is unavailable the last known-good bytes
// are served with stale=true instead of an error.
func (p *Products) GetCtx(ctx context.Context, job JobInfo, req ProductRequest) (data []byte, shared, stale bool, err error) {
	key, err := req.Key()
	if err != nil {
		return nil, false, false, err
	}
	fkey := job.ID + "|" + key
	data, shared, err = p.flight.DoCtx(ctx, fkey, func() ([]byte, error) {
		opCtx, cancel := context.WithTimeout(context.Background(), p.opTimeout)
		defer cancel()
		st := store.ForContext(opCtx, p.store)
		// An index-registered product (an in-situ emission, or a previous
		// leader's compute) serves straight from the store — no snapshot
		// needed, no particle set materialised.
		if ref, cerr := p.index.GetProduct(job.ID, key); cerr == nil {
			return st.Get(ref)
		}
		// Gather fallback: derive the product from the final snapshot.
		if job.SnapshotRef == "" {
			return nil, fmt.Errorf("serve: job %s has no snapshot yet (state %s)", job.ID, job.State)
		}
		b, cerr := p.computeWith(st, job, req)
		if cerr != nil {
			return nil, cerr
		}
		ref, cerr := st.PutNamed(productName(job.ID, key), b)
		if cerr != nil {
			return nil, cerr
		}
		if cerr := p.index.PutProduct(job.ID, key, ref); cerr != nil {
			return nil, cerr
		}
		return b, nil
	})
	if err == nil {
		p.remember(fkey, data)
		return data, shared, false, nil
	}
	// Degrade only on backend unavailability — a dead caller context or a
	// definitive error propagates honestly.
	if errors.Is(err, store.ErrUnavailable) {
		if b, ok := p.recall(fkey); ok {
			p.staleServed.Add(1)
			return b, shared, true, nil
		}
	}
	return nil, shared, false, err
}

func (p *Products) computeWith(st store.Store, job JobInfo, req ProductRequest) ([]byte, error) {
	raw, err := st.Get(job.SnapshotRef)
	if err != nil {
		return nil, fmt.Errorf("serve: job %s: load snapshot: %w", job.ID, err)
	}
	// The whole-snapshot product is the stored blob itself, bit for bit.
	if req.Kind == ProductSnapshot && req.Lo == 0 && req.Hi == 0 {
		return raw, nil
	}
	hdr, parts, err := snapshot.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("serve: job %s: decode snapshot: %w", job.ID, err)
	}

	switch req.Kind {
	case ProductSnapshot:
		lo, hi := req.Lo, req.Hi
		if hi == 0 || hi > len(parts) {
			hi = len(parts)
		}
		if lo >= len(parts) {
			return nil, fmt.Errorf("serve: snapshot slice starts at %d but the run has %d particles", lo, len(parts))
		}
		return snapshot.Encode(hdr, parts[lo:hi])

	case ProductHalos:
		b := req.B
		if b == 0 {
			b = 0.2
		}
		minSize := req.MinSize
		if minSize == 0 {
			minSize = 8
		}
		x, y, z, m := columns(parts)
		// Linking length in mean-interparticle-separation units: the run
		// has NP³ particles in a box of side L.
		ll := b * hdr.L / float64(job.Spec.NP)
		groups := analysis.FoF(x, y, z, hdr.L, ll, minSize)
		halos := analysis.Catalog(x, y, z, m, hdr.L, groups)
		return analysis.EncodeCatalog(analysis.CatalogFile{
			Format: 1, L: hdr.L, Time: hdr.Time, Step: hdr.StepIdx,
			LinkingLength: ll, MinSize: minSize, Halos: halos,
		})

	case ProductPk:
		nmesh := req.NMesh
		if nmesh == 0 {
			nmesh = job.Spec.withDefaults().NMesh
		}
		nbins := req.NBins
		if nbins == 0 {
			nbins = 16
		}
		x, y, z, m := columns(parts)
		ks, ps, counts, err := analysis.PowerSpectrum(x, y, z, m, nmesh, hdr.L, nbins)
		if err != nil {
			return nil, fmt.Errorf("serve: job %s: power spectrum: %w", job.ID, err)
		}
		// CanonicalP quantizes the spectrum to 10 significant digits on
		// every path (here and in the in-situ emission), so the served
		// bytes are identical regardless of which FFT factorization
		// computed them.
		return analysis.EncodePower(analysis.PowerFile{
			Format: 1, L: hdr.L, Time: hdr.Time, Step: hdr.StepIdx,
			NMesh: nmesh, NBins: nbins, K: ks, P: analysis.CanonicalP(ps), Count: counts,
		})

	case ProductDensity:
		n := req.NPix
		if n == 0 {
			n = 64
		}
		x, y, _, m := columns(parts)
		img := analysis.ProjectXY(x, y, m, n, hdr.L)
		var buf bytes.Buffer
		if err := analysis.WritePGM(&buf, img); err != nil {
			return nil, fmt.Errorf("serve: job %s: render density: %w", job.ID, err)
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("serve: unknown product kind %q", req.Kind)
}

// columns splits particles into the coordinate arrays the analysis package
// consumes.
func columns(parts []sim.Particle) (x, y, z, m []float64) {
	x = make([]float64, len(parts))
	y = make([]float64, len(parts))
	z = make([]float64, len(parts))
	m = make([]float64, len(parts))
	for i, p := range parts {
		x[i], y[i], z[i], m[i] = p.X, p.Y, p.Z, p.M
	}
	return
}
