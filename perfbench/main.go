// Command perfbench is greem's repository benchmark. One process drives one
// workload through the program's public entry points, checks that the
// program's outputs are correct, and prints every metric by name with its
// unit; the last line of standard output is the JSON result.
//
//	bash perfbench/run.sh --workload clustered-pp --seed 1 --seconds 30 --trace 0
//
// Workloads (README.md says why each was chosen):
//
//	clustered-pp  32³ particles, ¾ in one Gaussian clump, static box, 2 ranks
//	cosmo-pm      32³ Zel'dovich ICs at z = 400, EdS, NMesh 64, 2 ranks
//	served-job    greemd's HTTP handler over a filesystem store: submit, poll,
//	              audit and fetch products of np=32 jobs
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 is the separate traced run: it prints the per-layer metrics and
// writes Chrome traces under <workdir>/traces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options is what a workload run is told by the command line.
type options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	WorkDir string // root for temporary stores and trace files
	Tiny    bool   // smoke-test sizes (the benchmark's own tests)
}

// workload is one benchmark workload.
type workload struct {
	name  string
	ranks int
	run   func(o options, r *result) error
}

var workloads = []workload{
	{name: "clustered-pp", ranks: 2, run: runClusteredPP},
	{name: "cosmo-pm", ranks: 2, run: runCosmoPM},
	{name: "served-job", ranks: 2, run: runServedJob},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload: clustered-pp, cosmo-pm or served-job")
	seed := flag.Int64("seed", 1, "workload seed; 1 and 2 are the tuning seeds, 1009 the hold-out seed")
	seconds := flag.Int("seconds", 30, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run, per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for temporary stores and traces")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be at least 1\n")
		os.Exit(2)
	}
	// The benchmark process runs with one OS thread per CPU and never more
	// rank goroutines than CPUs: oversubscribed timings show shape, not speed.
	runtime.GOMAXPROCS(runtime.NumCPU())
	if w.ranks > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "perfbench: %s needs %d ranks but the host has %d CPUs; refusing to report oversubscribed timings\n",
			w.name, w.ranks, runtime.NumCPU())
		os.Exit(3)
	}
	o := options{Seed: *seed, Seconds: float64(*seconds), Trace: *trace == 1, WorkDir: *workdir}
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, o.Trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// runWorkload runs w and validates that it produced every metric the
// selected mode must print.
func runWorkload(w workload, o options) (*result, error) {
	r := &result{stamp: stamp{
		Workload: w.name, Seed: o.Seed, Trace: o.Trace, Ranks: w.ranks,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}}
	if err := w.run(o, r); err != nil {
		return nil, err
	}
	want := endToEndMetrics
	if o.Trace {
		want = perLayerMetrics
	}
	if err := r.complete(want); err != nil {
		return nil, err
	}
	return r, nil
}

// stamp is the host and shape record every result carries.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Ranks      int    `json:"ranks"`
	N          int    `json:"n"`
	NMesh      int    `json:"nmesh"`
	// Samples is the number of timed samples behind step_s_p50/p90.
	Samples int `json:"step_samples"`
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed by --trace 0 on every workload; README.md
// defines each per workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"step_s_p50", "s"},
	{"step_s_p90", "s"},
	{"alloc_mb_per_step", "MB"},
	{"live_heap_mb", "MB"},
	{"force_rms_err", "ratio"},
	{"job_s", "s"},
	{"product_s_p50", "s"},
	{"product_indexed_s_p50", "s"},
}

// perLayerMetrics are printed by --trace 1 on every workload; a layer a
// workload does not exercise reads 0 (README.md lists which apply where).
var perLayerMetrics = []metricDef{
	{"ppkern.interactions_per_step", "count"},
	{"ppkern.ns_per_interaction", "ns"},
	{"tree.build_s_per_step", "s"},
	{"tree.walk_s_per_step", "s"},
	{"tree.let_s_per_step", "s"},
	{"tree.mean_ni", "count"},
	{"tree.mean_nj", "count"},
	{"pmpar.density_s_per_step", "s"},
	{"pmpar.comm_s_per_step", "s"},
	{"pmpar.fft_s_per_step", "s"},
	{"pmpar.mesh_force_s_per_step", "s"},
	{"pmpar.interp_s_per_step", "s"},
	{"pmpar.hidden_s_per_step", "s"},
	{"pmpar.join_wait_s_per_step", "s"},
	{"domain.sampling_s_per_step", "s"},
	{"domain.imbalance_interactions", "ratio"},
	{"domain.imbalance_pp_s", "ratio"},
	{"sim.dd_exchange_s_per_step", "s"},
	{"sim.pos_update_s_per_step", "s"},
	{"sim.new_s", "s"},
	{"sim.allocs_per_step", "count"},
	{"mpi.msgs_per_step", "count"},
	{"mpi.bytes_per_step", "B"},
	{"mpi.ghost_bytes_per_step", "B"},
	{"mpi.ledger_ops_retained", "count"},
	{"checkpoint.write_s_per_write", "s"},
	{"checkpoint.bytes_per_write", "B"},
	{"analysis.fof_s_per_pass", "s"},
	{"analysis.pk_s_per_pass", "s"},
	{"analysis.proj_s_per_pass", "s"},
	{"store.put_ops", "count/job"},
	{"store.get_ops", "count/job"},
	{"store.put_bytes", "B/job"},
	{"store.get_bytes", "B/job"},
	{"store.put_s", "s/job"},
	{"store.get_s", "s/job"},
	{"serve.queue_wait_s", "s"},
	{"serve.run_s", "s"},
	{"serve.integrity_s", "s"},
	{"serve.pp_force_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"error_rate", "ratio"},
}

// result accumulates one run's metrics, operation counts and check
// failures.
type result struct {
	stamp     stamp
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
}

// set records a metric value; units come from the metric tables.
func (r *result) set(name string, v float64) {
	if r.values == nil {
		r.values = make(map[string]float64)
	}
	r.values[name] = v
}

// op counts one attempted operation (a step, a job, an HTTP request) and
// records err as a failure.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

// check counts one correctness check as an operation; a false ok is a
// failure described by the formatted message.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("check failed: "+format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// complete fills error_rate and verifies every wanted metric is present and
// finite.
func (r *result) complete(want []metricDef) error {
	if r.attempted > 0 {
		r.set("error_rate", float64(r.failed)/float64(r.attempted))
	}
	var missing []string
	for _, m := range want {
		v, ok := r.values[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", m.name, v)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %v", missing)
	}
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable lines, the host stamp and, last, the JSON
// result line.
func (r *result) print(f *os.File, traced bool) error {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	for _, msg := range r.failures {
		fmt.Fprintf(f, "# FAILED %s\n", msg)
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range defs {
		v := r.values[m.name]
		fmt.Fprintf(f, "# %-32s %.6g %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	host, err := json.Marshal(struct {
		Host stamp `json:"host"`
	}{r.stamp})
	if err != nil {
		return err
	}
	fmt.Fprintln(f, string(host))
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
