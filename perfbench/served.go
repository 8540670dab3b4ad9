package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"greem/internal/checkpoint"
	"greem/internal/cosmo"
	"greem/internal/mpi"
	"greem/internal/serve"
	"greem/internal/sim"
	"greem/internal/snapshot"
	"greem/internal/store"
	"greem/internal/telemetry"
)

// servedCase sizes the served-job workload.
type servedCase struct {
	spec serve.JobSpec
	// The closed-loop job count is --seconds / jobSeconds, at least
	// minJobs: fixed by the command line, so every run of one seed does the
	// same work. A job cycle (run, audit, products) takes about 7.5 s on a
	// 2-CPU host; --seconds 20 gives four jobs.
	jobSeconds float64
	minJobs    int
	ewaldK     int
	poll       time.Duration
}

// servedSetupReps is the number of daemon start-ups per run; setup_s is
// their median. They run after the jobs, over the populated store, so each
// replays the jobs' journal; one takes a few milliseconds.
const servedSetupReps = 25

func servedWorkload(o options) servedCase {
	c := servedCase{
		spec: serve.JobSpec{
			NP: 32, Ranks: 2, Steps: 16, Seed: o.Seed,
			CheckpointEvery: 4, InSituEvery: 4,
		},
		jobSeconds: 5, minJobs: 3, ewaldK: 1024, poll: 20 * time.Millisecond,
	}
	if o.Tiny {
		c.spec.NP, c.spec.Steps, c.spec.CheckpointEvery, c.spec.InSituEvery = 8, 4, 2, 2
		c.jobSeconds, c.minJobs, c.ewaldK, c.poll = math.Inf(1), 2, 64, 5*time.Millisecond
	}
	return c
}

// storeTap is the benchmark-owned store.Store wrapper: it sits between the
// filesystem store and greemd's breaker/retry stack, so it sees every
// physical store call. While on, each call is counted and recorded as a
// span; while off it only forwards.
type storeTap struct {
	base store.Store
	log  *spanLog
	on   atomic.Bool

	mu                 sync.Mutex
	putOps, getOps     int64
	putBytes, getBytes int64
	putS, getS         float64
	ckptPutBytes       int64
}

// tapTotals is a copy of the tap's counters.
type tapTotals struct {
	putOps, getOps, putBytes, getBytes, ckptPutBytes int64
	putS, getS                                       float64
}

func (t *storeTap) totals() tapTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	return tapTotals{t.putOps, t.getOps, t.putBytes, t.getBytes, t.ckptPutBytes, t.putS, t.getS}
}

func (t *storeTap) note(op, name string, t0 time.Time, bytes int) {
	if !t.on.Load() {
		return
	}
	d := time.Since(t0)
	t.log.add("store."+op, name, 0, t0, d, int64(bytes))
	t.mu.Lock()
	defer t.mu.Unlock()
	switch op {
	case "Put", "PutNamed":
		t.putOps++
		t.putBytes += int64(bytes)
		t.putS += d.Seconds()
		if strings.Contains(name, "/ckpt/") {
			t.ckptPutBytes += int64(bytes)
		}
	case "Get":
		t.getOps++
		t.getBytes += int64(bytes)
		t.getS += d.Seconds()
	}
}

func (t *storeTap) Put(data []byte) (store.Ref, error) {
	t0 := time.Now()
	ref, err := t.base.Put(data)
	t.note("Put", "", t0, len(data))
	return ref, err
}

func (t *storeTap) Get(ref store.Ref) ([]byte, error) {
	t0 := time.Now()
	b, err := t.base.Get(ref)
	t.note("Get", "", t0, len(b))
	return b, err
}

func (t *storeTap) Has(ref store.Ref) (bool, error) {
	t0 := time.Now()
	ok, err := t.base.Has(ref)
	t.note("Has", "", t0, 0)
	return ok, err
}

func (t *storeTap) Link(name string, ref store.Ref) error {
	t0 := time.Now()
	err := t.base.Link(name, ref)
	t.note("Link", name, t0, 0)
	return err
}

func (t *storeTap) Resolve(name string) (store.Ref, error) {
	t0 := time.Now()
	ref, err := t.base.Resolve(name)
	t.note("Resolve", name, t0, 0)
	return ref, err
}

func (t *storeTap) Unlink(name string) error {
	t0 := time.Now()
	err := t.base.Unlink(name)
	t.note("Unlink", name, t0, 0)
	return err
}

func (t *storeTap) List(prefix string) ([]string, error) {
	t0 := time.Now()
	names, err := t.base.List(prefix)
	t.note("List", prefix, t0, 0)
	return names, err
}

func (t *storeTap) PutNamed(name string, data []byte) (store.Ref, error) {
	t0 := time.Now()
	ref, err := t.base.PutNamed(name, data)
	t.note("PutNamed", name, t0, len(data))
	return ref, err
}

// stepClock timestamps every per-step progress push of the running jobs: a
// benchmark-owned wrapper around serve.SimRunner, the runner greemd uses.
type stepClock struct {
	mu    sync.Mutex
	stamp map[string][]time.Time
}

func (s *stepClock) runner(ctx context.Context, id string, spec serve.JobSpec, st store.Store, update func(serve.RunUpdate)) error {
	return serve.SimRunner(ctx, id, spec, st, func(u serve.RunUpdate) {
		if u.Step > 0 && !u.Restart && u.SnapshotRef == "" {
			s.mu.Lock()
			s.stamp[id] = append(s.stamp[id], time.Now())
			s.mu.Unlock()
		}
		update(u)
	})
}

// intervals returns the job's step-to-step wall times: each push after the
// first, minus the one before it (the first step also pays IC generation
// and sim.New).
func (s *stepClock) intervals(id string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.stamp[id]
	var out []float64
	for i := 1; i < len(ts); i++ {
		out = append(out, ts[i].Sub(ts[i-1]).Seconds())
	}
	return out
}

// daemon is greemd's serving stack, assembled as cmd/greemd assembles it
// with -data: filesystem store → (tap) → circuit breaker → retry, the
// journaled StoreIndex, the job manager and the HTTP handler on a loopback
// listener.
type daemon struct {
	base string // http://host:port
	mgr  *serve.Manager
	srv  *http.Server
	done chan error
}

// startDaemon opens the stack over dir and returns once /readyz answers
// 200. tap may be nil.
func startDaemon(dir string, tap *storeTap, clock *stepClock, client *http.Client) (*daemon, error) {
	fsStore, err := store.NewFS(dir)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	var base store.Store = fsStore
	if tap != nil {
		tap.base = fsStore
		base = tap
	}
	// greemd's defaults: -breaker-threshold 5, -breaker-cooldown 2s,
	// -retry-attempts 4, -fault-seed 1.
	breaker := store.NewBreaker(base, store.BreakerConfig{Threshold: 5, Cooldown: 2 * time.Second})
	retry := store.NewRetry(breaker, store.RetryConfig{Attempts: 4, Seed: 1})
	idx, err := serve.OpenStoreIndex(retry, nil)
	if err != nil {
		return nil, fmt.Errorf("open job journal: %w", err)
	}
	mgr, err := serve.NewManager(serve.ManagerConfig{Store: retry, Index: idx, QueueDepth: 64, Runner: clock.runner})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		return nil, err
	}
	handler := serve.NewServer(serve.ServerConfig{
		Manager: mgr, Index: idx, Store: retry, Retry: retry, Breaker: breaker,
		RequestTimeout: 30 * time.Second,
	}).Handler()
	d := &daemon{
		base: "http://" + ln.Addr().String(), mgr: mgr,
		srv:  &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not ready after 30s (%v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the HTTP server down, waits for it, and closes the manager.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	<-d.done
	d.mgr.Close()
}

// client is the closed-loop HTTP client: it sends the next request only
// after the previous one completed, counts every request as an operation,
// and records a span per request in traced runs.
type client struct {
	http *http.Client
	base string
	r    *result
	log  *spanLog // nil ⇒ no spans
}

// do sends one request and returns the body of a response with the wanted
// status; any other outcome is a failed operation.
func (c *client) do(method, path, parent string, body []byte, want int) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	t0 := time.Now()
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.r.op(err)
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	var b []byte
	if err == nil {
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != want {
			err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
		}
	}
	d := time.Since(t0)
	c.log.add("http "+method+" "+routeOf(path), parent, 0, t0, d, int64(len(b)))
	c.r.op(err)
	return b, d, err
}

// routeOf strips the job ID and query from a request path for span names.
func routeOf(path string) string {
	path, _, _ = strings.Cut(path, "?")
	parts := strings.Split(path, "/")
	if len(parts) > 2 && parts[1] == "runs" {
		parts[2] = "{id}"
	}
	return strings.Join(parts, "/")
}

// jobResult is what one closed-loop job cycle measured.
type jobResult struct {
	info      serve.JobInfo
	jobS      float64
	integrity float64
	products  productRound
	alloc     uint64 // TotalAlloc over POST → done
	mallocs   uint64
	tap       tapTotals // tap counters over the whole cycle (traced jobs)
	traced    bool
}

// runJob submits one job, polls it to a terminal state, audits it and
// requests the product mix once.
func (c *client) runJob(spec serve.JobSpec, poll time.Duration, tap *storeTap, traced bool) (jobResult, error) {
	jr := jobResult{traced: traced}
	if tap != nil {
		tap.on.Store(traced)
		defer tap.on.Store(false)
	}
	var tap0 tapTotals
	if tap != nil {
		tap0 = tap.totals()
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return jr, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	b, _, err := c.do(http.MethodPost, "/runs", "job", body, http.StatusAccepted)
	if err != nil {
		return jr, err
	}
	if err := json.Unmarshal(b, &jr.info); err != nil {
		return jr, fmt.Errorf("decode submitted job: %w", err)
	}
	id := jr.info.ID
	for !jr.info.State.Terminal() {
		time.Sleep(poll)
		b, _, err := c.do(http.MethodGet, "/runs/"+id, "job", nil, http.StatusOK)
		if err != nil {
			return jr, err
		}
		if err := json.Unmarshal(b, &jr.info); err != nil {
			return jr, fmt.Errorf("decode job status: %w", err)
		}
	}
	jr.jobS = since(t0)
	runtime.ReadMemStats(&m1)
	jr.alloc, jr.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	c.r.check(jr.info.State == serve.StateDone, "job %s ended %s: %s", id, jr.info.State, jr.info.Error)
	if jr.info.State != serve.StateDone {
		return jr, nil
	}

	ok, d, err := c.integrity(id)
	jr.integrity = d.Seconds()
	c.r.check(err == nil && ok, "integrity of job %s: %v", id, err)

	// The in-situ emissions must be in the index before the first request.
	b, _, err = c.do(http.MethodGet, "/runs/"+id+"/products", "products", nil, http.StatusOK)
	if err != nil {
		return jr, err
	}
	var held struct{ Products []string }
	if err := json.Unmarshal(b, &held); err != nil {
		return jr, fmt.Errorf("decode product list: %w", err)
	}
	n := spec.NP * spec.NP * spec.NP
	first := make([][]byte, len(productMix))
	// Collect the job's garbage first, so no product round starts with a
	// collection half due.
	runtime.GC()
	for i, p := range productMix {
		key, err := p.request().Key()
		if err != nil {
			return jr, err
		}
		c.r.check(slices.Contains(held.Products, key) == p.inSitu,
			"product %s of job %s: held before the first request = %v, want %v", key, id, !p.inSitu, p.inSitu)
		b, d, err := c.do(http.MethodGet, p.path(id), "products", nil, http.StatusOK)
		if !p.inSitu {
			jr.products.recompute += d.Seconds()
		}
		if err == nil {
			derr := decodeProduct(p, n, b)
			c.r.check(derr == nil, "product decodes: %v", derr)
		}
		first[i] = b
	}
	lat := make([][]float64, len(productMix))
	for rep := 0; rep < servedIndexedReps; rep++ {
		for i, p := range productMix {
			b, d, err := c.do(http.MethodGet, p.path(id), "products", nil, http.StatusOK)
			lat[i] = append(lat[i], d.Seconds())
			if err == nil {
				c.r.check(bytes.Equal(b, first[i]), "product %s of job %s: repeat differs from the first answer", p.path(id), id)
			}
		}
	}
	jr.products.indexed = indexedLatency(lat)
	if tap != nil {
		t1 := tap.totals()
		jr.tap = tapTotals{
			putOps: t1.putOps - tap0.putOps, getOps: t1.getOps - tap0.getOps,
			putBytes: t1.putBytes - tap0.putBytes, getBytes: t1.getBytes - tap0.getBytes,
			ckptPutBytes: t1.ckptPutBytes - tap0.ckptPutBytes,
			putS:         t1.putS - tap0.putS, getS: t1.getS - tap0.getS,
		}
	}
	return jr, nil
}

// integrity calls /integrity and reports whether the run verified. A 409
// (a failed audit) is a completed request with ok = false.
func (c *client) integrity(id string) (bool, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.http.Get(c.base + "/runs/" + id + "/integrity")
	if err != nil {
		c.r.op(err)
		return false, 0, err
	}
	defer resp.Body.Close()
	var rep serve.IntegrityReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	d := time.Since(t0)
	c.log.add("http GET /runs/{id}/integrity", "audit", 0, t0, d, 0)
	c.r.op(err)
	if err != nil {
		return false, d, err
	}
	if !rep.OK {
		return false, d, fmt.Errorf("HTTP %d: %s", resp.StatusCode, rep.Error)
	}
	return resp.StatusCode == http.StatusOK, d, nil
}

func runServedJob(o options, r *result) error {
	c := servedWorkload(o)
	spec := c.spec
	nmesh := 1
	for nmesh < 2*spec.NP {
		nmesh <<= 1
	}
	n := spec.NP * spec.NP * spec.NP
	r.stamp.N, r.stamp.NMesh, r.stamp.Ranks = n, nmesh, spec.Ranks
	jobs := max(c.minJobs, int(math.Round(o.Seconds/c.jobSeconds)))

	dir := filepath.Join(o.WorkDir, fmt.Sprintf("served-%d-seed%d", os.Getpid(), o.Seed))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	httpc := &http.Client{Timeout: 60 * time.Second}
	defer httpc.CloseIdleConnections()
	clock := &stepClock{stamp: make(map[string][]time.Time)}
	var spans *spanLog
	var tap *storeTap
	if o.Trace {
		spans = newSpanLog()
		tap = &storeTap{log: spans}
	}

	d, err := startDaemon(dir, tap, clock, httpc)
	if err != nil {
		return err
	}
	cl := &client{http: httpc, base: d.base, r: r, log: spans}
	var results []jobResult
	for j := 0; j < jobs; j++ {
		jr, err := cl.runJob(spec, c.poll, tap, o.Trace && j%2 == 1)
		if err != nil {
			d.stop()
			return fmt.Errorf("job %d: %w", j+1, err)
		}
		results = append(results, jr)
	}

	// Determinism: every job of one seed ends at the same snapshot.
	first := results[0].info
	for _, jr := range results[1:] {
		r.check(jr.info.SnapshotRef == first.SnapshotRef, "snapshot ref %s of %s differs from %s of %s",
			jr.info.SnapshotRef, jr.info.ID, first.SnapshotRef, first.ID)
	}
	fmt.Printf("# served-job: %d jobs of %d steps, final snapshot %s\n", len(results), spec.Steps, first.SnapshotRef)

	// Accuracy of greemd's force configuration on the served final state.
	rms, err := servedForceCheck(cl, dir, first, spec, c.ewaldK, o.Seed, r)
	// The heap the daemon retains after its jobs (index, product caches),
	// measured while it is still up.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.stop()
	if err != nil {
		return err
	}

	// Set-up, several times, over the store the jobs populated: open the
	// store, replay the journal, start the manager and the listener, until
	// /readyz answers.
	var setups []float64
	for rep := 0; rep < servedSetupReps; rep++ {
		t0 := time.Now()
		d, err = startDaemon(dir, tap, clock, httpc)
		if err != nil {
			return err
		}
		setups = append(setups, since(t0))
		spans.add("serve.setup", "setup", 0, t0, time.Duration(setups[rep]*float64(time.Second)), 0)
		if rep < servedSetupReps-1 {
			d.stop()
		}
	}
	// The replayed index serves every job as it finished.
	cl.base = d.base
	for _, jr := range results {
		b, _, err := cl.do(http.MethodGet, "/runs/"+jr.info.ID, "replay", nil, http.StatusOK)
		var info serve.JobInfo
		if err == nil {
			err = json.Unmarshal(b, &info)
		}
		r.check(err == nil && info.State == serve.StateDone && info.SnapshotRef == jr.info.SnapshotRef,
			"job %s after journal replay: state %s, snapshot %s (%v)", jr.info.ID, info.State, info.SnapshotRef, err)
	}
	d.stop()

	var steps []float64
	var rounds []productRound
	var jobS, jobTraced, jobPlain, integ, queue, run []float64
	var alloc, mallocs uint64
	var nSteps int
	for _, jr := range results {
		iv := clock.intervals(jr.info.ID)
		steps = append(steps, iv...)
		rounds = append(rounds, jr.products)
		jobS = append(jobS, jr.jobS)
		if jr.traced {
			jobTraced = append(jobTraced, jr.jobS)
		} else {
			jobPlain = append(jobPlain, jr.jobS)
		}
		integ = append(integ, jr.integrity)
		queue = append(queue, jr.info.StartedAt.Sub(jr.info.SubmittedAt).Seconds())
		run = append(run, jr.info.FinishedAt.Sub(jr.info.StartedAt).Seconds())
		alloc += jr.alloc
		mallocs += jr.mallocs
		nSteps += spec.Steps
	}
	r.stamp.Samples = len(steps)

	if !o.Trace {
		r.set("setup_s", median(setups))
		r.set("step_s_p50", median(steps))
		r.set("step_s_p90", quantile(steps, 0.9))
		r.set("alloc_mb_per_step", float64(alloc)/1e6/float64(nSteps))
		r.set("live_heap_mb", float64(ms.HeapAlloc)/1e6)
		r.set("force_rms_err", rms)
		r.set("job_s", median(jobS))
		recompute, indexed := roundMedians(rounds)
		r.set("product_s_p50", recompute)
		r.set("product_indexed_s_p50", indexed)
		return nil
	}

	// Per-layer metrics. The layer timers come from JobInfo.Telemetry, the
	// rank-0 registry greemd publishes; store figures from the traced jobs.
	tel := newTelemetry(results[len(results)-1].info.Telemetry)
	stepsF := float64(spec.Steps)
	perStep := func(phase string) float64 { return tel.phase(phase) / stepsF }
	inter := tel.counter("greem_tree_interactions_total")
	groups := tel.counter("greem_tree_groups_total")
	r.set("ppkern.interactions_per_step", inter/stepsF)
	r.set("ppkern.ns_per_interaction", ratio(tel.phase(telemetry.PhasePPForce), inter)*1e9)
	r.set("tree.build_s_per_step", perStep(telemetry.PhasePPTreeConstr))
	r.set("tree.walk_s_per_step", perStep(telemetry.PhasePPTraverse))
	r.set("tree.let_s_per_step", perStep(telemetry.PhasePPLET))
	r.set("tree.mean_ni", ratio(tel.counter("greem_tree_sum_ni_total"), groups))
	r.set("tree.mean_nj", ratio(tel.counter("greem_tree_list_particles_total")+tel.counter("greem_tree_list_nodes_total"), groups))
	r.set("pmpar.density_s_per_step", perStep(telemetry.PhasePMDensity))
	r.set("pmpar.comm_s_per_step", perStep(telemetry.PhasePMComm))
	r.set("pmpar.fft_s_per_step", perStep(telemetry.PhasePMFFT))
	r.set("pmpar.mesh_force_s_per_step", perStep(telemetry.PhasePMMeshForce))
	r.set("pmpar.interp_s_per_step", perStep(telemetry.PhasePMInterp))
	r.set("pmpar.hidden_s_per_step", tel.counter(telemetry.MetricOverlapHidden)/stepsF)
	r.set("pmpar.join_wait_s_per_step", perStep(telemetry.PhaseOverlapJoin))
	r.set("domain.sampling_s_per_step", perStep(telemetry.PhaseDDSampling))
	r.set("sim.dd_exchange_s_per_step", perStep(telemetry.PhaseDDExchange))
	r.set("sim.pos_update_s_per_step", perStep(telemetry.PhaseDDPosUpdate))
	r.set("sim.allocs_per_step", float64(mallocs)/float64(nSteps))
	for _, m := range []string{
		"domain.imbalance_interactions", "domain.imbalance_pp_s", "sim.new_s",
		"mpi.msgs_per_step", "mpi.bytes_per_step", "mpi.ghost_bytes_per_step", "mpi.ledger_ops_retained",
	} {
		r.set(m, 0) // not observable from outside a served job
	}
	writes := float64(tel.count(telemetry.PhaseCkptWrite))
	r.set("checkpoint.write_s_per_write", ratio(tel.phase(telemetry.PhaseCkptWrite), writes))
	var tapSum tapTotals
	var traced int
	for _, jr := range results {
		if !jr.traced {
			continue
		}
		traced++
		tapSum.putOps += jr.tap.putOps
		tapSum.getOps += jr.tap.getOps
		tapSum.putBytes += jr.tap.putBytes
		tapSum.getBytes += jr.tap.getBytes
		tapSum.ckptPutBytes += jr.tap.ckptPutBytes
		tapSum.putS += jr.tap.putS
		tapSum.getS += jr.tap.getS
	}
	perJob := func(v float64) float64 { return ratio(v, float64(traced)) }
	r.set("checkpoint.bytes_per_write", ratio(perJob(float64(tapSum.ckptPutBytes)), writes))
	r.set("analysis.fof_s_per_pass", ratio(tel.phase(telemetry.PhaseAnalysisFoF), float64(tel.count(telemetry.PhaseAnalysisFoF))))
	r.set("analysis.pk_s_per_pass", ratio(tel.phase(telemetry.PhaseAnalysisPk), float64(tel.count(telemetry.PhaseAnalysisPk))))
	r.set("analysis.proj_s_per_pass", ratio(tel.phase(telemetry.PhaseAnalysisProj), float64(tel.count(telemetry.PhaseAnalysisProj))))
	r.set("store.put_ops", perJob(float64(tapSum.putOps)))
	r.set("store.get_ops", perJob(float64(tapSum.getOps)))
	r.set("store.put_bytes", perJob(float64(tapSum.putBytes)))
	r.set("store.get_bytes", perJob(float64(tapSum.getBytes)))
	r.set("store.put_s", perJob(tapSum.putS))
	r.set("store.get_s", perJob(tapSum.getS))
	r.set("serve.queue_wait_s", median(queue))
	r.set("serve.run_s", median(run))
	r.set("serve.integrity_s", median(integ))
	r.set("serve.pp_force_share", ratio(tel.phase(telemetry.PhasePPForce), results[len(results)-1].info.FinishedAt.Sub(results[len(results)-1].info.StartedAt).Seconds()))
	r.set("trace.overhead_ratio", ratio(median(jobTraced), median(jobPlain)))

	tdir := filepath.Join(o.WorkDir, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(tdir, fmt.Sprintf("served-job-seed%d.bench.json", o.Seed))
	if err := spans.writeChrome(path); err != nil {
		return err
	}
	fmt.Printf("# traces: %s (benchmark spans: HTTP requests, store calls)\n", path)
	return nil
}

// jobTelemetry indexes a JobInfo.Telemetry snapshot (rank 0's registry).
type jobTelemetry struct {
	byKey map[string]telemetry.MetricSnapshot
}

func newTelemetry(ms []telemetry.MetricSnapshot) jobTelemetry {
	t := jobTelemetry{byKey: make(map[string]telemetry.MetricSnapshot, len(ms))}
	for _, m := range ms {
		t.byKey[m.Key()] = m
	}
	return t
}

func (t jobTelemetry) counter(name string, labels ...telemetry.Label) float64 {
	return t.byKey[telemetry.MetricSnapshot{Name: name, Labels: labels}.Key()].Value
}

// phase returns a phase's accumulated seconds.
func (t jobTelemetry) phase(name string) float64 {
	return t.counter("greem_phase_seconds_total", telemetry.L("phase", name))
}

// count returns how many spans a phase recorded (its duration histogram's
// sample count).
func (t jobTelemetry) count(name string) uint64 {
	return t.byKey[telemetry.MetricSnapshot{Name: "greem_span_seconds", Labels: []telemetry.Label{telemetry.L("phase", name)}}.Key()].Count
}

// servedSimConfig mirrors the simulation configuration greemd derives from
// a job spec (serve.simConfigFromSpec): float64 kernel, LET exchange,
// sequential PM, deterministic cost, the EdS stepper over the spec's
// default z = 400 → 31 range in spec.Steps steps. The checkpoint manifests
// carry a fingerprint of that configuration, so restoring a job's
// checkpoint under this mirror fails as soon as the two differ.
func servedSimConfig(spec serve.JobSpec, nmesh int) sim.Config {
	const l, g, totalM = 1.0, 1.0, 1.0
	aStart, aEnd := cosmo.ScaleFactor(400), cosmo.ScaleFactor(31)
	return sim.Config{
		L: l, G: g, NMesh: nmesh, Theta: 0.5, Eps2: 1e-8,
		FastKernel: true, LETExchange: true, DeterministicCost: true,
		Grid: [3]int{spec.Ranks, 1, 1}, DT: (aEnd - aStart) / float64(spec.Steps), Time: aStart,
		Stepper: cosmo.EdS(cosmo.HubbleForBox(g, totalM, l, 1.0)),
	}
}

// servedForceCheck fetches the job's final snapshot over HTTP and checks
// the particle set; restores the job's last checkpoint (the final step)
// from the store under dir with greemd's configuration, checks that it
// holds the snapshot's state, and returns the RMS error against Ewald of
// the forces that configuration computes on it (Sim.ComputeForces).
func servedForceCheck(cl *client, dir string, job serve.JobInfo, spec serve.JobSpec, k int, seed int64, r *result) (float64, error) {
	b, _, err := cl.do(http.MethodGet, "/runs/"+job.ID+"/products/"+serve.ProductSnapshot, "check", nil, http.StatusOK)
	if err != nil {
		return 0, fmt.Errorf("fetch final snapshot: %w", err)
	}
	hdr, all, err := snapshot.Decode(b)
	if err != nil {
		return 0, fmt.Errorf("decode final snapshot: %w", err)
	}
	n := spec.NP * spec.NP * spec.NP
	drift := checkParticles(all, n, momentumTolServed, r)
	nmesh := 1
	for nmesh < 2*spec.NP {
		nmesh <<= 1
	}
	cfg := servedSimConfig(spec, nmesh)
	fsStore, err := store.NewFS(dir)
	if err != nil {
		return 0, err
	}
	ck := checkpoint.Config{Dir: "runs/" + job.ID + "/ckpt", Sim: cfg, FS: checkpoint.StoreFS(fsStore)}
	ids := sampleIDs(seed, n, k)
	per := make([][]forceSample, spec.Ranks)
	errs := make([]error, spec.Ranks)
	var restored []sim.Particle
	var restoredStep int
	var restoredTime float64
	err = mpi.Run(spec.Ranks, func(c *mpi.Comm) {
		s, err := checkpoint.Restore(c, ck)
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		defer s.Close()
		s.ComputeForces()
		for i := 0; i < s.NumLocal(); i++ {
			if id := s.ID(i); ids[id] {
				ax, ay, az := s.AccelFor(i)
				per[c.Rank()] = append(per[c.Rank()], forceSample{ID: id, AX: ax, AY: ay, AZ: az})
			}
		}
		gathered := s.GatherAll(0)
		if c.Rank() == 0 {
			restored, restoredStep, restoredTime = gathered, s.StepIndex(), s.Time()
		}
	})
	if err == nil {
		err = errors.Join(errs...)
	}
	if err != nil {
		return 0, fmt.Errorf("restore job %s under greemd's configuration: %w", job.ID, err)
	}
	sort.Slice(restored, func(i, j int) bool { return restored[i].ID < restored[j].ID })
	same := restoredStep == spec.Steps && restoredTime == hdr.Time && len(restored) == len(all)
	for i := 0; same && i < len(all); i++ {
		p, q := restored[i], all[i]
		same = p.ID == q.ID && p.X == q.X && p.Y == q.Y && p.Z == q.Z && p.VX == q.VX && p.VY == q.VY && p.VZ == q.VZ
	}
	r.check(same, "job %s: restored checkpoint (step %d, a=%v) does not hold the final snapshot's state (step %d, a=%v)",
		job.ID, restoredStep, restoredTime, spec.Steps, hdr.Time)
	var samples []forceSample
	for _, p := range per {
		samples = append(samples, p...)
	}
	pair, err := ewaldPair(cfg.Eps2)
	if err != nil {
		return 0, err
	}
	fe, err := forceRMS(all, samples, pair)
	checkForces(fe, err, "served", r)
	fmt.Printf("# served-job: momentum drift %.3g; force error RMS %.4g, global %.4g over %d particles (greemd configuration, restored step %d)\n",
		drift, fe.RMS, fe.Global, len(samples), restoredStep)
	return fe.RMS, nil
}
