package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"greem/internal/cosmo"
	"greem/internal/ic"
	"greem/internal/mpi"
	"greem/internal/sim"
	"greem/internal/telemetry"
	"greem/internal/vec"
)

// driverCase is one workload run through sim.New / Sim.Step with the
// drivers' production configuration.
type driverCase struct {
	name  string
	np    int
	nmesh int
	grid  [3]int
	// rate is the nominal timed steps per second on a 2-CPU host. The step
	// budget is --seconds × rate (at least minSteps), a count fixed by the
	// command line, so every run of one seed times the same trajectory.
	rate     float64
	minSteps int
	// ewaldK is the force-check sample size; the reference sums over all
	// N sources at ≈0.1 µs a pair, k·N·0.1 µs / GOMAXPROCS in all.
	ewaldK int
	// momentumTol bounds the final relative momentum drift.
	momentumTol float64
	dt          float64
	t0          float64
	stepper     sim.TimeStepper
	gen         func(seed int64) ([]sim.Particle, error)
}

// Sizes shared by the driver workloads.
const (
	setupReps = 3 // set-ups per run; setup_s is their median
	warmSteps = 2 // steps inside set-up, before the first timed step
	jobSteps  = 100
	// productPauses is how many times the timed window stops, outside
	// timing, to derive the product mix from the current state. Spreading
	// the rounds over the window samples the host through the run, as the
	// steps do.
	productPauses = 16
)

func runClusteredPP(o options, r *result) error {
	c := driverCase{
		name: "clustered-pp", np: 32, nmesh: 32, grid: [3]int{2, 1, 1},
		rate: 6, minSteps: 100, ewaldK: 1024, momentumTol: momentumTolClustered, dt: 0.005,
		stepper: sim.StaticStepper{},
	}
	if o.Tiny {
		c.np, c.nmesh, c.minSteps, c.rate, c.ewaldK = 8, 8, 6, 0, 64
	}
	np := c.np
	c.gen = func(seed int64) ([]sim.Particle, error) { return clusteredIC(seed, np*np*np), nil }
	return runDriver(o, c, r)
}

func runCosmoPM(o options, r *result) error {
	const l, g, totalM = 1.0, 1.0, 1.0
	model := cosmo.EdS(cosmo.HubbleForBox(g, totalM, l, 1.0))
	aStart, aEnd := cosmo.ScaleFactor(400), cosmo.ScaleFactor(31)
	c := driverCase{
		name: "cosmo-pm", np: 32, nmesh: 64, grid: [3]int{2, 1, 1},
		rate: 7.5, minSteps: 100, ewaldK: 1024, momentumTol: momentumTolCosmo,
		// The greem driver's default z = 400 → 31 range at 1024 steps: a
		// run stays in the near-uniform early universe.
		dt: (aEnd - aStart) / 1024, t0: aStart, stepper: model,
	}
	if o.Tiny {
		c.np, c.nmesh, c.minSteps, c.rate, c.ewaldK = 16, 32, 6, 0, 64
	}
	np, nmesh := c.np, c.nmesh
	c.gen = func(seed int64) ([]sim.Particle, error) {
		return ic.Generate(ic.Config{
			NP: np, NGrid: nmesh, L: l, Seed: seed, Model: model, AInit: aStart, TotalMass: totalM,
			PS: ic.NeutralinoCutoff{Amp: 5e-5, KCut: 2 * math.Pi / l * float64(np) / 4},
		})
	}
	return runDriver(o, c, r)
}

// clusteredIC is the clustered-pp initial state: n particles of equal mass
// at rest, a quarter uniform in the unit box and three quarters in one
// Gaussian clump of σ = 0.02 at the box centre.
func clusteredIC(seed int64, n int) []sim.Particle {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]sim.Particle, n)
	for i := range parts {
		var p vec.V3
		if i%4 == 0 {
			p = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		} else {
			p = vec.Wrap(vec.V3{
				X: 0.5 + 0.02*rng.NormFloat64(),
				Y: 0.5 + 0.02*rng.NormFloat64(),
				Z: 0.5 + 0.02*rng.NormFloat64(),
			}, 1)
		}
		parts[i] = sim.Particle{X: p.X, Y: p.Y, Z: p.Z, M: 1 / float64(n), ID: int64(i)}
	}
	return parts
}

// rankCounters is one rank's cumulative layer counters at an instant.
type rankCounters struct {
	density, comm, fft, meshForce, interp float64 // pmpar phases
	build, walk, let, force               float64 // tree phases
	sampling, exchange, posUpdate         float64 // domain / sim phases
	hidden, join                          float64 // PM‖PP overlap
	groups, sumNi, list, inter            float64 // interaction statistics
}

func readCounters(s *sim.Sim) rankCounters {
	t := s.Timers()
	c := s.Counters().Tree
	return rankCounters{
		density: t.PM.Density.Seconds(), comm: t.PM.Comm.Seconds(), fft: t.PM.FFT.Seconds(),
		meshForce: t.PM.MeshForce.Seconds(), interp: t.PM.Interp.Seconds(),
		build: t.PPTreeConstr, walk: t.PPTraverse, let: t.PPLET, force: t.PPForce,
		sampling: t.DDSampling, exchange: t.DDExchange, posUpdate: t.DDPosUpdate,
		hidden: s.OverlapStats().HiddenSeconds, join: s.Recorder().PhaseSeconds(telemetry.PhaseOverlapJoin),
		groups: float64(c.Groups), sumNi: float64(c.SumNi),
		list: float64(c.ListParticles + c.ListNodes), inter: float64(c.Interactions),
	}
}

func (a rankCounters) minus(b rankCounters) rankCounters {
	return rankCounters{
		a.density - b.density, a.comm - b.comm, a.fft - b.fft, a.meshForce - b.meshForce, a.interp - b.interp,
		a.build - b.build, a.walk - b.walk, a.let - b.let, a.force - b.force,
		a.sampling - b.sampling, a.exchange - b.exchange, a.posUpdate - b.posUpdate,
		a.hidden - b.hidden, a.join - b.join,
		a.groups - b.groups, a.sumNi - b.sumNi, a.list - b.list, a.inter - b.inter,
	}
}

// ledgerTotals is the world traffic ledger summed at an instant.
type ledgerTotals struct{ ops, msgs, bytes, ghostBytes int64 }

func readLedger(t *mpi.Traffic) ledgerTotals {
	var l ledgerTotals
	for _, tot := range t.TotalsByOp() {
		l.ops += tot.Ops
		l.msgs += tot.Msgs
		l.bytes += tot.Bytes
	}
	l.ghostBytes = t.TotalsByLabel()[sim.TrafficLabelGhosts].Bytes
	return l
}

// driverRun is what the rank goroutines of the measured world hand back.
// Each rank writes only its own slots; rank 0 reads them after a barrier.
type driverRun struct {
	setup, newS    []float64 // per set-up, rank 0
	step           []float64 // timed step durations, rank 0
	traced         []bool    // whether each timed step ran traced
	deltas         []rankCounters
	mem0, mem1     runtime.MemStats
	liveHeap       uint64
	led0, led1     ledgerTotals
	imbalancePP    float64
	samples        []forceSample
	final          []sim.Particle
	recs           []*telemetry.Recorder
	spans          *spanLog
	ledgerRetained int64

	// The product pauses, and what they allocated and sent, which the
	// window's step figures exclude.
	products                 *localProducts
	prodErr                  error
	pauseAlloc, pauseMallocs uint64
	pauseLedger              ledgerTotals
}

func runDriver(o options, c driverCase, r *result) error {
	ranks := c.grid[0] * c.grid[1] * c.grid[2]
	n := c.np * c.np * c.np
	r.stamp.N, r.stamp.NMesh, r.stamp.Ranks = n, c.nmesh, ranks
	steps := max(c.minSteps, int(math.Round(o.Seconds*c.rate)))
	reps, warm := setupReps, warmSteps
	if o.Tiny {
		reps, warm = 2, 1
	}
	cfg := sim.Config{
		L: 1, G: 1, NMesh: c.nmesh, Theta: 0.5, Ni: 100, Eps2: 1e-8,
		FastKernel: true, Float32Kernel: true, LETExchange: true, OverlapPMPP: true,
		DeterministicCost: true, Workers: 0,
		Grid: c.grid, DT: c.dt, Stepper: c.stepper, Time: c.t0,
	}
	d := &driverRun{
		deltas: make([]rankCounters, ranks), recs: make([]*telemetry.Recorder, ranks),
		products: &localProducts{np: c.np},
	}
	if o.Trace {
		d.spans = newSpanLog()
	}
	sampleSet := sampleIDs(o.Seed, n, c.ewaldK)
	sampleParts := make([][]forceSample, ranks)

	for rep := 0; rep < reps; rep++ {
		last := rep == reps-1
		t0 := time.Now()
		parts, err := c.gen(o.Seed)
		if err != nil {
			return fmt.Errorf("initial conditions: %w", err)
		}
		err = mpi.Run(ranks, func(comm *mpi.Comm) {
			rank := comm.Rank()
			rec := telemetry.NewRecorder(rank, nil)
			rcfg := cfg
			rcfg.Recorder = rec
			var mine []sim.Particle
			for i := range parts {
				if i%ranks == rank {
					mine = append(mine, parts[i])
				}
			}
			var s *sim.Sim
			var nerr error
			newD := d.spans.time("sim.New", "setup", rank, func() { s, nerr = sim.New(comm, rcfg, mine) })
			if nerr != nil {
				panic(nerr)
			}
			defer s.Close()
			for i := 0; i < warm; i++ {
				if err := s.Step(); err != nil {
					panic(err)
				}
			}
			comm.Barrier()
			if rank == 0 {
				d.setup = append(d.setup, since(t0))
				d.newS = append(d.newS, newD.Seconds())
			}
			if !last {
				return
			}
			d.recs[rank] = rec
			measure(comm, s, d, steps, max(1, steps/productPauses), o.Trace, r)
			d.spans.time("sim.ComputeForces", "check", rank, s.ComputeForces)
			for i := 0; i < s.NumLocal(); i++ {
				if id := s.ID(i); sampleSet[id] {
					ax, ay, az := s.AccelFor(i)
					sampleParts[rank] = append(sampleParts[rank], forceSample{ID: id, AX: ax, AY: ay, AZ: az})
				}
			}
			all := s.GatherAll(0)
			if p := telemetry.Aggregate(comm, rec); p != nil {
				d.imbalancePP = p.Phase(telemetry.SpanPP).Imbalance
			}
			comm.Barrier()
			if rank == 0 {
				d.final = all
				d.ledgerRetained = readLedger(comm.Traffic()).ops
			}
		})
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
	}
	for _, sp := range sampleParts {
		d.samples = append(d.samples, sp...)
	}
	r.stamp.Samples = len(d.step)
	for range d.step {
		r.op(nil)
	}

	// Correctness: particle set, momentum, force accuracy.
	drift := checkParticles(d.final, n, c.momentumTol, r)
	pair, err := ewaldPair(cfg.Eps2)
	if err != nil {
		return err
	}
	fe, err := forceRMS(d.final, d.samples, pair)
	checkForces(fe, err, c.name, r)
	fmt.Printf("# %s: %d timed steps, %d ranks, N=%d, NMesh=%d; momentum drift %.3g; force error RMS %.4g, global %.4g over %d particles\n",
		c.name, len(d.step), ranks, n, c.nmesh, drift, fe.RMS, fe.Global, len(d.samples))

	if d.prodErr != nil {
		return d.prodErr
	}
	nSteps := float64(len(d.step))
	jobN := min(jobSteps, len(d.step))
	job := 0.0
	for _, s := range d.step[:jobN] {
		job += s
	}
	if !o.Trace {
		r.set("setup_s", median(d.setup))
		r.set("step_s_p50", median(d.step))
		r.set("step_s_p90", quantile(d.step, 0.9))
		r.set("alloc_mb_per_step", float64(d.mem1.TotalAlloc-d.mem0.TotalAlloc-d.pauseAlloc)/1e6/nSteps)
		r.set("live_heap_mb", float64(d.liveHeap)/1e6)
		r.set("force_rms_err", fe.RMS)
		r.set("job_s", job)
		recompute, indexed := roundMedians(d.products.rounds)
		r.set("product_s_p50", recompute)
		r.set("product_indexed_s_p50", indexed)
		return nil
	}

	// Per-layer metrics from the traced run.
	perStepMax := func(f func(rankCounters) float64) float64 {
		var xs []float64
		for _, dl := range d.deltas {
			xs = append(xs, f(dl)/nSteps)
		}
		return maxOf(xs)
	}
	var sum rankCounters
	var interRanks []float64
	for _, dl := range d.deltas {
		sum.force += dl.force
		sum.inter += dl.inter
		sum.groups += dl.groups
		sum.sumNi += dl.sumNi
		sum.list += dl.list
		interRanks = append(interRanks, dl.inter)
	}
	r.set("ppkern.interactions_per_step", sum.inter/nSteps)
	r.set("ppkern.ns_per_interaction", ratio(sum.force, sum.inter)*1e9)
	r.set("tree.build_s_per_step", perStepMax(func(x rankCounters) float64 { return x.build }))
	r.set("tree.walk_s_per_step", perStepMax(func(x rankCounters) float64 { return x.walk }))
	r.set("tree.let_s_per_step", perStepMax(func(x rankCounters) float64 { return x.let }))
	r.set("tree.mean_ni", ratio(sum.sumNi, sum.groups))
	r.set("tree.mean_nj", ratio(sum.list, sum.groups))
	r.set("pmpar.density_s_per_step", perStepMax(func(x rankCounters) float64 { return x.density }))
	r.set("pmpar.comm_s_per_step", perStepMax(func(x rankCounters) float64 { return x.comm }))
	r.set("pmpar.fft_s_per_step", perStepMax(func(x rankCounters) float64 { return x.fft }))
	r.set("pmpar.mesh_force_s_per_step", perStepMax(func(x rankCounters) float64 { return x.meshForce }))
	r.set("pmpar.interp_s_per_step", perStepMax(func(x rankCounters) float64 { return x.interp }))
	r.set("pmpar.hidden_s_per_step", perStepMax(func(x rankCounters) float64 { return x.hidden }))
	r.set("pmpar.join_wait_s_per_step", perStepMax(func(x rankCounters) float64 { return x.join }))
	r.set("domain.sampling_s_per_step", perStepMax(func(x rankCounters) float64 { return x.sampling }))
	r.set("domain.imbalance_interactions", ratio(maxOf(interRanks), sum.inter/float64(len(interRanks))))
	r.set("domain.imbalance_pp_s", d.imbalancePP)
	r.set("sim.dd_exchange_s_per_step", perStepMax(func(x rankCounters) float64 { return x.exchange }))
	r.set("sim.pos_update_s_per_step", perStepMax(func(x rankCounters) float64 { return x.posUpdate }))
	r.set("sim.new_s", median(d.newS))
	r.set("sim.allocs_per_step", float64(d.mem1.Mallocs-d.mem0.Mallocs-d.pauseMallocs)/nSteps)
	r.set("mpi.msgs_per_step", float64(d.led1.msgs-d.led0.msgs-d.pauseLedger.msgs)/nSteps)
	r.set("mpi.bytes_per_step", float64(d.led1.bytes-d.led0.bytes-d.pauseLedger.bytes)/nSteps)
	r.set("mpi.ghost_bytes_per_step", float64(d.led1.ghostBytes-d.led0.ghostBytes-d.pauseLedger.ghostBytes)/nSteps)
	r.set("mpi.ledger_ops_retained", float64(d.ledgerRetained))
	for _, m := range []string{
		"checkpoint.write_s_per_write", "checkpoint.bytes_per_write",
		"analysis.fof_s_per_pass", "analysis.pk_s_per_pass", "analysis.proj_s_per_pass",
		"store.put_ops", "store.get_ops", "store.put_bytes", "store.get_bytes", "store.put_s", "store.get_s",
		"serve.queue_wait_s", "serve.run_s", "serve.integrity_s", "serve.pp_force_share",
	} {
		r.set(m, 0) // layers this workload does not exercise
	}
	var plain, traced []float64
	for i, s := range d.step {
		if d.traced[i] {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	r.set("trace.overhead_ratio", ratio(median(traced), median(plain)))
	return writeDriverTraces(o, c.name, d)
}

// measure runs the timed steps on every rank: steps barrier-to-barrier,
// timed on rank 0, with the layer counters, allocation statistics and
// traffic ledger read around the whole window outside timing. Every
// pauseEvery steps the window pauses, outside the step timer, to gather the
// state and derive the product mix from it on rank 0; what a pause
// allocates and sends is recorded so the step figures can exclude it. In a
// traced run every second step runs with the recorder's timeline on and a
// benchmark span around Sim.Step, so traced and untraced steps interleave
// along the same trajectory.
func measure(comm *mpi.Comm, s *sim.Sim, d *driverRun, steps, pauseEvery int, trace bool, r *result) {
	rank := comm.Rank()
	rec := s.Recorder()
	before := readCounters(s)
	if rank == 0 {
		d.led0 = readLedger(comm.Traffic())
		runtime.ReadMemStats(&d.mem0)
	}
	comm.Barrier()
	start := time.Now()
	for k := 0; k < steps; k++ {
		traced := trace && k%2 == 1
		rec.EnableTrace(traced)
		var err error
		if traced {
			d.spans.time("sim.Step", "timed", rank, func() { err = s.Step() })
		} else {
			err = s.Step()
		}
		if err != nil {
			panic(fmt.Errorf("timed step %d: %w", k, err))
		}
		comm.Barrier()
		if rank == 0 {
			now := time.Now()
			d.step = append(d.step, now.Sub(start).Seconds())
			d.traced = append(d.traced, traced)
			start = now
		}
		if (k+1)%pauseEvery == 0 {
			productPause(comm, s, d, r)
			if rank == 0 {
				start = time.Now()
			}
		}
	}
	rec.EnableTrace(false)
	if rank == 0 {
		runtime.ReadMemStats(&d.mem1)
		d.led1 = readLedger(comm.Traffic())
		// The heap the running simulation retains: particles, trees, PM
		// buffers, recorders and the traffic ledger.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		d.liveHeap = ms.HeapAlloc
	}
	d.deltas[rank] = readCounters(s).minus(before)
	comm.Barrier()
}

// productPause gathers the current state to rank 0 and runs one round of
// the product mix there, recording the pause's allocations and traffic,
// and collects the garbage it left before timing resumes.
func productPause(comm *mpi.Comm, s *sim.Sim, d *driverRun, r *result) {
	var m0, m1 runtime.MemStats
	var l0 ledgerTotals
	if comm.Rank() == 0 {
		runtime.ReadMemStats(&m0)
		l0 = readLedger(comm.Traffic())
	}
	comm.Barrier()
	all := s.GatherAll(0)
	comm.Barrier()
	if comm.Rank() == 0 {
		runtime.GC() // start every round on a collected heap
		if err := d.products.run(all, s.Time(), s.StepIndex(), r); err != nil && d.prodErr == nil {
			d.prodErr = err
		}
		runtime.ReadMemStats(&m1)
		l1 := readLedger(comm.Traffic())
		d.pauseAlloc += m1.TotalAlloc - m0.TotalAlloc
		d.pauseMallocs += m1.Mallocs - m0.Mallocs
		d.pauseLedger.msgs += l1.msgs - l0.msgs
		d.pauseLedger.bytes += l1.bytes - l0.bytes
		d.pauseLedger.ghostBytes += l1.ghostBytes - l0.ghostBytes
		// Collect the pause's garbage now, so the collections it would
		// trigger do not run inside the following timed steps.
		runtime.GC()
	}
	comm.Barrier()
}

// writeDriverTraces writes the ranks' Chrome trace and the benchmark's
// spans for a traced driver run.
func writeDriverTraces(o options, name string, d *driverRun) error {
	dir := filepath.Join(o.WorkDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, o.Seed))
	f, err := os.Create(base + ".ranks.json")
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, d.recs...); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := d.spans.writeChrome(base + ".bench.json"); err != nil {
		return err
	}
	fmt.Printf("# traces: %s.ranks.json (program spans), %s.bench.json (benchmark spans)\n", base, base)
	return nil
}
