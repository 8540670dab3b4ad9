package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greem/internal/ewald"
	"greem/internal/sim"
	"greem/internal/vec"
)

// tinyOptions runs a workload at smoke-test size: 8³ or 16³ particles, a
// handful of steps, two short jobs.
func tinyOptions(t *testing.T, trace bool) options {
	return options{Seed: 3, Seconds: 1, Trace: trace, WorkDir: t.TempDir(), Tiny: true}
}

// TestSmokeEveryMetricPrinted runs each workload at tiny size in both modes
// and asserts the result line carries every named metric with its unit and
// that every correctness check passed.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.name + map[bool]string{false: "/end-to-end", true: "/per-layer"}[trace]
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(w, tinyOptions(t, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Fatalf("checks failed: %v", res.failures)
				}
				out := filepath.Join(t.TempDir(), "out.txt")
				f, err := os.Create(out)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.print(f, trace); err != nil {
					t.Fatal(err)
				}
				f.Close()
				b, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(string(b)), "\n")
				var got jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				want := endToEndMetrics
				if trace {
					want = perLayerMetrics
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					g, ok := got.Metrics[m.name]
					if !ok || g.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %q", m.name, g, m.unit)
					}
					if !trace && g.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, g.Value)
					}
				}
				if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
					t.Errorf("result line: correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
				}
				if !strings.Contains(string(b), `"host":{"workload":"`+w.name) {
					t.Errorf("no host stamp line in output")
				}
			})
		}
	}
}

// TestPerturbedForceReferenceTrips: a reference 30% stronger than Ewald must
// push the RMS error past forceTolerance, while the true reference passes.
func TestPerturbedForceReferenceTrips(t *testing.T) {
	n := 8 * 8 * 8
	all := clusteredIC(5, n)
	pair, err := ewaldPair(0)
	if err != nil {
		t.Fatal(err)
	}
	var samples []forceSample
	for id := range sampleIDs(5, n, 6) {
		var a vec.V3
		self := all[id]
		for j := range all {
			if int64(j) != id {
				a = a.Add(pair(vec.V3{X: all[j].X - self.X, Y: all[j].Y - self.Y, Z: all[j].Z - self.Z}).Scale(all[j].M))
			}
		}
		samples = append(samples, forceSample{ID: id, AX: a.X, AY: a.Y, AZ: a.Z})
	}
	exact, err := forceRMS(all, samples, pair)
	if err != nil || exact.RMS > 1e-12 || exact.Global > 1e-12 {
		t.Fatalf("exact reference: %+v, err %v", exact, err)
	}
	r := &result{}
	checkForces(exact, err, "exact", r)
	if !r.correct() {
		t.Fatalf("exact reference failed the check: %v", r.failures)
	}
	perturbed := func(d vec.V3) vec.V3 { return pair(d).Scale(1.3) }
	fe, err := forceRMS(all, samples, perturbed)
	r = &result{}
	checkForces(fe, err, "perturbed", r)
	if r.correct() {
		t.Fatalf("perturbed reference gave %+v, within tolerance %v", fe, forceTolerance)
	}
}

// TestEwaldPairMatchesDirect: total forces from the tabulated reference
// agree with direct internal/ewald PairAccel sums (default tuning) on a
// clustered set.
func TestEwaldPairMatchesDirect(t *testing.T) {
	all := clusteredIC(11, 16*16*16)
	pair, err := ewaldPair(0)
	if err != nil {
		t.Fatal(err)
	}
	direct := ewald.New(1, 1)
	var e2, r2 float64
	for id := range sampleIDs(11, len(all), 4) {
		self := all[id]
		var a, b vec.V3
		for j := range all {
			if int64(j) == id {
				continue
			}
			d := vec.V3{X: all[j].X - self.X, Y: all[j].Y - self.Y, Z: all[j].Z - self.Z}
			a = a.Add(pair(d).Scale(all[j].M))
			b = b.Add(direct.PairAccel(d).Scale(all[j].M))
		}
		e2 += a.Sub(b).Norm2()
		r2 += b.Norm2()
	}
	if rms := math.Sqrt(e2 / r2); rms > 1e-6 {
		t.Errorf("tabulated reference differs from direct Ewald by %.3g RMS", rms)
	}
}

// TestParticleCheckTrips: a lost particle, or a uniform kick that moves
// the relative momentum drift just past a workload's bound, must fail the
// final-state checks; half that kick must pass.
func TestParticleCheckTrips(t *testing.T) {
	const n = 64
	all := clusteredIC(7, n)
	// Velocities in opposite pairs: total momentum exactly zero.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n/2; i++ {
		all[i].VX, all[i].VY, all[i].VZ = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		all[i+n/2].VX, all[i+n/2].VY, all[i+n/2].VZ = -all[i].VX, -all[i].VY, -all[i].VZ
	}
	var scale float64
	for _, p := range all {
		scale += p.M * math.Sqrt(p.VX*p.VX+p.VY*p.VY+p.VZ*p.VZ)
	}
	r := &result{}
	checkParticles(append([]sim.Particle(nil), all...), n, momentumTolCosmo, r)
	if !r.correct() {
		t.Fatalf("unperturbed state failed: %v", r.failures)
	}
	r = &result{}
	checkParticles(append([]sim.Particle(nil), all[1:]...), n, momentumTolCosmo, r)
	if r.correct() {
		t.Fatal("a lost particle passed the check")
	}
	for _, tol := range []float64{momentumTolClustered, momentumTolCosmo} {
		for _, c := range []struct {
			share float64
			trips bool
		}{{0.5, false}, {2, true}} {
			kicked := append([]sim.Particle(nil), all...)
			for i := range kicked {
				kicked[i].VX += c.share * tol * scale // total mass 1
			}
			r = &result{}
			checkParticles(kicked, n, tol, r)
			if r.correct() == c.trips {
				t.Errorf("bound %g: a kick of %g× the bound gave correct=%v: %v", tol, c.share, r.correct(), r.failures)
			}
		}
	}
}

// TestCorruptedBlobTripsIntegrity runs a tiny served job, flips a byte in
// one stored blob, and requires the integrity check to fail.
func TestCorruptedBlobTripsIntegrity(t *testing.T) {
	o := tinyOptions(t, false)
	c := servedWorkload(o)
	dir := filepath.Join(o.WorkDir, "store")
	httpc := &http.Client{}
	defer httpc.CloseIdleConnections()
	clock := &stepClock{stamp: map[string][]time.Time{}}
	d, err := startDaemon(dir, nil, clock, httpc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	r := &result{}
	cl := &client{http: httpc, base: d.base, r: r}
	jr, err := cl.runJob(c.spec, c.poll, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct() {
		t.Fatalf("clean job failed its checks: %v", r.failures)
	}
	// The final snapshot's blob, at the filesystem store's object path.
	ref := jr.info.SnapshotRef
	blob := filepath.Join(dir, "objects", ref[:2], ref[2:])
	b, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(blob, b, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, _, err := cl.integrity(jr.info.ID)
	if ok || err == nil {
		t.Fatalf("integrity passed after corrupting the snapshot blob %s", blob)
	}
}

// TestBenchmarkJSONMatchesTables: BENCHMARK.json names exactly the
// workloads and metrics (with units) this program prints.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
