package serve

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"
)

// longSpec is a job that trains effectively forever (tiny inline
// dataset, a huge epoch budget, sparse evaluation) so tests can observe
// queued/running states and exercise cancellation; solver.Train checks
// its context between epochs, and epochs here take microseconds, so
// cancellation is prompt.
func longSpec(model string) JobSpec {
	return JobSpec{
		Model: model, Algo: "sgd",
		Data:      "1 1:1 3:0.5\n-1 2:1\n1 1:0.4 2:0.1\n-1 3:0.9\n",
		Epochs:    1 << 26,
		Step:      0.1,
		EvalEvery: 1 << 20,
	}
}

// waitState polls until the job reports the wanted state.
func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.Status().State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s (currently %s)", j.ID, want, j.Status().State)
}

func TestCancelRunningJob(t *testing.T) {
	dir := t.TempDir()
	mgr := NewManager(NewRegistry(), 1, dir)
	defer mgr.Shutdown(context.Background())

	j, err := mgr.Submit(longSpec("slow"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	if err := mgr.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	st := j.Status()
	if st.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	// Cancelled jobs never publish...
	if _, ok := mgr.Registry().Get("slow"); ok {
		t.Fatal("cancelled job must not publish its model")
	}
	// ...but do checkpoint partial progress for later inspection/resume,
	// under "<model>.partial" so a finished model's checkpoint of the
	// same name is never clobbered.
	if _, err := os.Stat(mgr.CheckpointPath("slow.partial")); err != nil {
		t.Fatalf("partial checkpoint missing: %v", err)
	}
	if _, err := os.Stat(mgr.CheckpointPath("slow")); err == nil {
		t.Fatal("cancelled job wrote the finished-model checkpoint path")
	}
	if err := mgr.Cancel("job-404404"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel(unknown) = %v, want ErrNotFound", err)
	}
}

// TestPoolLimit checks the bounded worker pool: with pool=1 a second
// job stays queued until the first leaves, and a queued job can be
// cancelled without ever running.
func TestPoolLimit(t *testing.T) {
	mgr := NewManager(NewRegistry(), 1, "")
	defer mgr.Shutdown(context.Background())

	a, err := mgr.Submit(longSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, StateRunning)

	b, err := mgr.Submit(longSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := mgr.Submit(longSpec("c"))
	if err != nil {
		t.Fatal(err)
	}
	// The pool has one slot and it is held by a: b and c must still be
	// queued after a grace interval.
	time.Sleep(50 * time.Millisecond)
	if st := b.Status().State; st != StateQueued {
		t.Fatalf("b state = %s while pool is full, want queued", st)
	}
	if got := mgr.Stats(); got.Running != 1 || got.Queued != 2 {
		t.Fatalf("stats = %+v, want 1 running / 2 queued", got)
	}

	// Cancelling queued c never runs it.
	if err := mgr.Cancel(c.ID); err != nil {
		t.Fatal(err)
	}
	<-c.Done()
	if st := c.Status(); st.State != StateCancelled || st.Started != nil {
		t.Fatalf("c = %+v, want cancelled without starting", st)
	}

	// Freeing the slot promotes b.
	if err := mgr.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	<-a.Done()
	waitState(t, b, StateRunning)
	if err := mgr.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	<-b.Done()
}

// TestShutdownCheckpointsInFlight is the graceful-shutdown contract:
// Shutdown cancels running jobs, persists their partial progress, drains
// the pool and rejects later submissions.
func TestShutdownCheckpointsInFlight(t *testing.T) {
	dir := t.TempDir()
	mgr := NewManager(NewRegistry(), 2, dir)

	j, err := mgr.Submit(longSpec("inflight"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := j.Status().State; st != StateCancelled {
		t.Fatalf("in-flight job state = %s after shutdown, want cancelled", st)
	}
	if _, err := os.Stat(mgr.CheckpointPath("inflight.partial")); err != nil {
		t.Fatalf("shutdown did not checkpoint the in-flight job: %v", err)
	}
	if _, err := mgr.Submit(longSpec("late")); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after shutdown = %v, want ErrShuttingDown", err)
	}
}

func TestShutdownTimeout(t *testing.T) {
	mgr := NewManager(NewRegistry(), 1, "")
	j, err := mgr.Submit(longSpec("x"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	// An already-expired context: Shutdown must report the timeout
	// rather than hang (the job does still get cancelled underneath).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := mgr.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown with dead context should report an error")
	}
	<-j.Done()
}

// TestCompileValidation pins the synchronous-400 contract: defaults are
// applied into the compiled config (so status and checkpoints report
// them), and invalid or abusive specs are rejected at submission.
func TestCompileValidation(t *testing.T) {
	r, err := compile(JobSpec{Dataset: "small"}, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.Epochs != 10 || r.cfg.Step != 0.5 {
		t.Fatalf("defaults not applied: epochs=%d step=%g", r.cfg.Epochs, r.cfg.Step)
	}
	for name, spec := range map[string]JobSpec{
		"bad step_decay":  {Dataset: "small", StepDecay: 2},
		"negative eta":    {Dataset: "small", Eta: -1},
		"huge threads":    {Dataset: "small", Threads: 1 << 20},
		"negative eval":   {Dataset: "small", EvalEvery: -1},
		"too many epochs": {Dataset: "small", Epochs: 1 << 40},
		"negative step":   {Dataset: "small", Step: -0.5},
	} {
		if _, err := compile(spec, false, ""); err == nil {
			t.Errorf("compile(%s) accepted an invalid spec", name)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"m", "model-1", "a.b_c", "X9"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", ".hidden", "a/b", "a b", "é", "../x"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
}
