package main

import (
	"bytes"
	"fmt"
	"net/url"
	"strconv"
	"time"

	"greem/internal/analysis"
	"greem/internal/serve"
	"greem/internal/sim"
	"greem/internal/snapshot"
	"greem/internal/store"
)

// productReq is one product parameterization of the fixed mix.
type productReq struct {
	kind  string
	query url.Values
	// inSitu: greemd's in-situ analysis emits this product, so a served
	// job's product index holds it before the first request.
	inSitu bool
}

// snapSlice is the particle range of the snapshot-slice product.
const snapSliceLo, snapSliceHi = 0, 64

// productMix is the fixed set of distinct parameterizations requested once
// each per round: the halos and pk defaults, which greemd's in-situ
// analysis emits, then the four requests of the README's greemd
// walkthrough (snapshot slice, halos, pk, density) as written there. The
// walkthrough's halos request has the in-situ catalog's canonical
// parameters; its pk request (key pk-n0-b16) does not match either key the
// runner emits the in-situ spectrum under, so it recomputes.
var productMix = []productReq{
	{kind: serve.ProductHalos, inSitu: true},
	{kind: serve.ProductPk, inSitu: true},
	{kind: serve.ProductSnapshot, query: url.Values{"lo": {strconv.Itoa(snapSliceLo)}, "hi": {strconv.Itoa(snapSliceHi)}}},
	{kind: serve.ProductHalos, query: url.Values{"b": {"0.2"}, "min_size": {"8"}}, inSitu: true},
	{kind: serve.ProductPk, query: url.Values{"nbins": {"16"}}},
	{kind: serve.ProductDensity, query: url.Values{"n": {"256"}}},
}

// productRound is what one round of the mix measured: the summed latency
// of its first requests that gathered and recomputed, and the latency of
// the whole mix answered from the product index (every product of the mix
// is held there once the first requests are done).
type productRound struct{ recompute, indexed float64 }

// indexedLatency is the latency of the whole mix answered from the index:
// the sum over the mix of each parameterization's median latency over the
// repeats (lat[i] are parameterization i's repeats). The median keeps a
// repeat that meets a garbage collection or a preemption out of the sum.
func indexedLatency(lat [][]float64) float64 {
	var sum float64
	for _, l := range lat {
		sum += median(l)
	}
	return sum
}

// roundMedians returns product_s_p50 and product_indexed_s_p50: the
// medians over rounds of the two summed latencies.
func roundMedians(rounds []productRound) (recompute, indexed float64) {
	var rs, is []float64
	for _, r := range rounds {
		rs = append(rs, r.recompute)
		is = append(is, r.indexed)
	}
	return median(rs), median(is)
}

// path returns the request path for the product of job id.
func (p productReq) path(id string) string {
	u := "/runs/" + id + "/products/" + p.kind
	if len(p.query) > 0 {
		u += "?" + p.query.Encode()
	}
	return u
}

// request converts the parameterization into the serve package's form.
func (p productReq) request() serve.ProductRequest {
	r := serve.ProductRequest{Kind: p.kind}
	atoi := func(k string) int { v, _ := strconv.Atoi(p.query.Get(k)); return v }
	r.Lo, r.Hi = atoi("lo"), atoi("hi")
	r.MinSize, r.NMesh, r.NBins, r.NPix = atoi("min_size"), atoi("nmesh"), atoi("nbins"), atoi("n")
	if b := p.query.Get("b"); b != "" {
		r.B, _ = strconv.ParseFloat(b, 64)
	}
	return r
}

// decodeProduct checks that product bytes decode as their kind says: a
// catalog or spectrum JSON, a PGM image of the requested side, or a
// snapshot holding the requested particle count.
func decodeProduct(p productReq, n int, b []byte) error {
	switch p.kind {
	case serve.ProductHalos:
		if _, err := analysis.DecodeCatalog(b); err != nil {
			return fmt.Errorf("halos %v: %w", p.query, err)
		}
	case serve.ProductPk:
		f, err := analysis.DecodePower(b)
		if err != nil {
			return fmt.Errorf("pk %v: %w", p.query, err)
		}
		if len(f.K) == 0 {
			return fmt.Errorf("pk %v: no bins", p.query)
		}
	case serve.ProductDensity:
		side := 64
		if s := p.query.Get("n"); s != "" {
			side, _ = strconv.Atoi(s)
		}
		hdr := fmt.Sprintf("P2\n%d %d\n255\n", side, side)
		pix, ok := bytes.CutPrefix(b, []byte(hdr))
		if !ok {
			return fmt.Errorf("density %v: not a %dx%d plain PGM", p.query, side, side)
		}
		fields := bytes.Fields(pix)
		if len(fields) != side*side {
			return fmt.Errorf("density %v: %d pixels, want %d", p.query, len(fields), side*side)
		}
		for _, f := range fields {
			if v, err := strconv.Atoi(string(f)); err != nil || v < 0 || v > 255 {
				return fmt.Errorf("density %v: bad pixel %q", p.query, f)
			}
		}
	case serve.ProductSnapshot:
		_, parts, err := snapshot.Decode(b)
		if err != nil {
			return fmt.Errorf("snapshot slice: %w", err)
		}
		want := min(snapSliceHi, n) - snapSliceLo
		if len(parts) != want {
			return fmt.Errorf("snapshot slice: %d particles, want %d", len(parts), want)
		}
	}
	return nil
}

// localProducts derives the product mix from a driver run's state through
// greemd's product code (serve.Products over an in-memory store), as a
// user does with a run's output. Each round registers the state under a
// fresh job ID, so the first request for each parameterization gathers
// and recomputes (nothing is emitted in situ in a driver run). The round
// then requests the mix again from the index, localIndexedReps times.
type localProducts struct {
	np     int
	rounds []productRound
}

// Repeats of the mix from the index per round: a repeat takes ≈50 µs in a
// driver's memory store and ≈2 ms over greemd's HTTP handler.
const (
	localIndexedReps  = 100
	servedIndexedReps = 50
)

// run requests the whole mix on the given state, first computed and then
// from the index, counting each request and each decode check in r.
func (lp *localProducts) run(all []sim.Particle, t float64, step int, r *result) error {
	id := fmt.Sprintf("local-%06d", len(lp.rounds)+1)
	b, err := snapshot.Encode(snapshot.Header{L: 1, Time: t, G: 1, StepIdx: uint64(step)}, all)
	if err != nil {
		return fmt.Errorf("encode snapshot: %w", err)
	}
	// A fresh store and index per round, so nothing outlives the round.
	st, idx := store.NewMem(), serve.NewMem()
	ref, err := st.PutNamed("runs/"+id+"/snapshot/final", b)
	if err != nil {
		return err
	}
	job := serve.JobInfo{
		ID: id, State: serve.StateDone, SnapshotRef: ref,
		Spec: serve.JobSpec{NP: lp.np, Ranks: 1, Steps: step},
	}
	if err := idx.CreateJob(job); err != nil {
		return err
	}
	prods := serve.NewProducts(st, idx)
	var round productRound
	first := make([][]byte, len(productMix))
	for i, p := range productMix {
		t0 := time.Now()
		data, _, err := prods.Get(job, p.request())
		round.recompute += since(t0)
		r.op(err)
		if err == nil {
			derr := decodeProduct(p, len(all), data)
			r.check(derr == nil, "product decodes: %v", derr)
		}
		first[i] = data
	}
	lat := make([][]float64, len(productMix))
	var errs int
	for rep := 0; rep < localIndexedReps; rep++ {
		for i, p := range productMix {
			t0 := time.Now()
			data, _, err := prods.Get(job, p.request())
			lat[i] = append(lat[i], since(t0))
			if err != nil || !bytes.Equal(data, first[i]) {
				errs++
			}
		}
	}
	round.indexed = indexedLatency(lat)
	r.check(errs == 0, "%d of %d indexed product requests failed or differed from the computed bytes", errs, localIndexedReps*len(productMix))
	lp.rounds = append(lp.rounds, round)
	return nil
}
