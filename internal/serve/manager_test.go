package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"greem/internal/store"
	"greem/internal/telemetry"
)

func validSpec() JobSpec {
	return JobSpec{NP: 4, Ranks: 2, Steps: 3, Seed: 7}
}

// waitJob polls the index until the job reaches a terminal state.
func waitJob(t *testing.T, idx Index, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, err := idx.GetJob(id)
		if err != nil {
			t.Fatalf("GetJob: %v", err)
		}
		if job.State.Terminal() {
			return job
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobInfo{}
}

func TestManagerLifecycle(t *testing.T) {
	idx := NewMem()
	runner := func(ctx context.Context, id string, spec JobSpec, st store.Store, update func(RunUpdate)) error {
		for step := 1; step <= spec.Steps; step++ {
			update(RunUpdate{
				Step: step, TotalSteps: spec.Steps, Time: float64(step),
				Checkpointed: step == 2,
				Telemetry:    []telemetry.MetricSnapshot{{Name: "steps_total", Value: float64(step)}},
			})
		}
		ref, err := st.PutNamed(snapshotName(id), []byte("snapshot-bytes"))
		if err != nil {
			return err
		}
		update(RunUpdate{Step: spec.Steps, TotalSteps: spec.Steps, SnapshotRef: ref})
		return nil
	}
	m, err := NewManager(ManagerConfig{Store: store.NewMem(), Index: idx, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	info, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateQueued || info.ID == "" {
		t.Fatalf("submit returned %+v", info)
	}

	job := waitJob(t, idx, info.ID)
	if job.State != StateDone {
		t.Fatalf("state %s (error %q), want done", job.State, job.Error)
	}
	if job.Step != 3 || job.TotalSteps != 3 {
		t.Fatalf("progress %d/%d, want 3/3", job.Step, job.TotalSteps)
	}
	if job.LastCheckpointStep != 2 {
		t.Fatalf("last checkpoint step %d, want 2", job.LastCheckpointStep)
	}
	if job.SnapshotRef == "" {
		t.Fatal("no snapshot ref recorded")
	}
	if len(job.Telemetry) == 0 || job.Telemetry[0].Name != "steps_total" {
		t.Fatalf("telemetry not recorded: %+v", job.Telemetry)
	}
	if job.StartedAt.IsZero() || job.FinishedAt.IsZero() {
		t.Fatal("timestamps not recorded")
	}
}

func TestManagerFailureAndRestartCounting(t *testing.T) {
	idx := NewMem()
	runner := func(ctx context.Context, id string, spec JobSpec, st store.Store, update func(RunUpdate)) error {
		update(RunUpdate{Restart: true})
		update(RunUpdate{Restart: true})
		return errors.New("world exploded")
	}
	m, err := NewManager(ManagerConfig{Store: store.NewMem(), Index: idx, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	info, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	job := waitJob(t, idx, info.ID)
	if job.State != StateFailed {
		t.Fatalf("state %s, want failed", job.State)
	}
	if !strings.Contains(job.Error, "world exploded") {
		t.Fatalf("error %q", job.Error)
	}
	if job.Restarts != 2 {
		t.Fatalf("restarts %d, want 2", job.Restarts)
	}
}

func TestManagerRejectsInvalidSpec(t *testing.T) {
	m, err := NewManager(ManagerConfig{Store: store.NewMem(), Index: NewMem(),
		Runner: func(context.Context, string, JobSpec, store.Store, func(RunUpdate)) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	bad := []JobSpec{
		{NP: 1, Ranks: 2, Steps: 1},                       // np too small
		{NP: 4, Ranks: 0, Steps: 1},                       // no ranks
		{NP: 4, Ranks: 2, Steps: 0},                       // no steps
		{NP: 4, Ranks: 2, Steps: 1, NMesh: 3},             // mesh too small
		{NP: 4, Ranks: 2, Steps: 1, ZStart: 10, ZEnd: 20}, // time runs backwards
		{NP: 4, Ranks: 2, Steps: 1, FailRankAtStep: 1},    // chaos without checkpoints
		{NP: 200, Ranks: 2, Steps: 1},                     // np too large
		{NP: 4, Ranks: 2, Steps: 1, CheckpointEvery: -1},  // negative knob
	}
	for i, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("spec %d accepted: %+v", i, spec)
		}
	}
}

// TestJobSpecValidateMeshShape: the PM mesh, explicit or defaulted to
// 2·np rounded up to a power of two, must be a power of two that the IC
// lattice tiles.
func TestJobSpecValidateMeshShape(t *testing.T) {
	for _, tc := range []struct {
		np, nmesh int
		ok        bool
	}{
		{np: 32, ok: true},            // the perfbench served job: nmesh 64
		{np: 4, ok: true},             // nmesh 8
		{np: 24, ok: false},           // nmesh 64 is not a multiple of 24
		{np: 6, ok: false},            // nmesh 16
		{np: 4, nmesh: 12, ok: false}, // not a power of two
		{np: 4, nmesh: 96, ok: false}, // not a power of two
		{np: 8, nmesh: 128, ok: true},
		{np: 16, nmesh: 8, ok: false},  // lattice finer than the mesh
		{np: 24, nmesh: 64, ok: false}, // explicit, same as the default
	} {
		spec := JobSpec{NP: tc.np, NMesh: tc.nmesh, Ranks: 2, Steps: 1}
		if err := spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("np=%d nmesh=%d: Validate() = %v, want ok=%v", tc.np, tc.nmesh, err, tc.ok)
		}
	}
}

// TestProductRequestPkMesh: a pk mesh is 0 (the run's PM mesh) or a power
// of two in [2, 512].
func TestProductRequestPkMesh(t *testing.T) {
	for nmesh, ok := range map[int]bool{
		0: true, 2: true, 64: true, 512: true,
		-1: false, 1: false, 3: false, 12: false, 1024: false,
	} {
		_, err := ProductRequest{Kind: ProductPk, NMesh: nmesh}.Key()
		if (err == nil) != ok {
			t.Errorf("pk nmesh=%d: Key() = %v, want ok=%v", nmesh, err, ok)
		}
	}
}

func TestManagerRunsJobsInOrder(t *testing.T) {
	idx := NewMem()
	var order []string
	runner := func(ctx context.Context, id string, spec JobSpec, st store.Store, update func(RunUpdate)) error {
		order = append(order, id) // executor is single-threaded; no lock needed
		return nil
	}
	m, err := NewManager(ManagerConfig{Store: store.NewMem(), Index: idx, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		info, err := m.Submit(validSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		waitJob(t, idx, id)
	}
	if strings.Join(order, ",") != strings.Join(ids, ",") {
		t.Fatalf("ran %v, want %v", order, ids)
	}

	jobs, err := idx.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 || jobs[0].ID != ids[2] {
		t.Fatalf("ListJobs order wrong: %v", jobs)
	}
}

func TestManagerCloseRejectsSubmissions(t *testing.T) {
	started := make(chan struct{})
	hold := make(chan struct{})
	runner := func(ctx context.Context, id string, spec JobSpec, st store.Store, update func(RunUpdate)) error {
		close(started)
		select {
		case <-hold:
		case <-ctx.Done():
		}
		return ctx.Err()
	}
	idx := NewMem()
	m, err := NewManager(ManagerConfig{Store: store.NewMem(), Index: idx, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Submit(validSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started

	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not cancel the running job")
	}
	if _, err := m.Submit(validSpec()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after close: %v", err)
	}
	job := waitJob(t, idx, info.ID)
	if job.State != StateFailed {
		t.Fatalf("cancelled job state %s, want failed", job.State)
	}
}
