package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/checkpoint"
)

// longSpec is a job that trains effectively forever (tiny inline
// dataset, a huge epoch budget, sparse evaluation) so tests can observe
// queued/running states and exercise cancellation; core.Train checks
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

// jobKinds are the two job kinds the one lifecycle runs, each as a
// spec factory: long jobs train until cancelled, short ones finish in
// milliseconds. A stream job reads a corpus file under the manager's
// stream root, one row per block; its long form runs 2^18 updates per
// block.
var jobKinds = []struct {
	name string
	spec func(t *testing.T, mgr *Manager, model string, long bool) JobSpec
}{
	{"batch", func(_ *testing.T, _ *Manager, model string, long bool) JobSpec {
		s := longSpec(model)
		if !long {
			s.Epochs, s.EvalEvery = 300, 100
		}
		return s
	}},
	{"stream", func(t *testing.T, mgr *Manager, model string, long bool) JobSpec {
		path := writeCorpusFile(t, streamCorpus(t, 512, 16, 3))
		mgr.SetStreamRoot(filepath.Dir(path))
		s := streamSpec(path)
		s.Model = model
		if long {
			s.BlockSize, s.UpdatesPerBlock, s.Threads = 1, 1<<18, 1
		}
		return s
	}},
}

// TestCancelRunningJob cancels a live job of each kind: it ends
// cancelled, its name is rolled back, and its progress lands in
// <model>.partial.ckpt, never in <model>.ckpt, with the epoch and
// updates its weights reached.
func TestCancelRunningJob(t *testing.T) {
	for _, kind := range jobKinds {
		t.Run(kind.name, func(t *testing.T) {
			dir := t.TempDir()
			mgr := NewManager(NewRegistry(), 1, dir)
			defer mgr.Shutdown(context.Background())

			j, err := mgr.Submit(kind.spec(t, mgr, "slow", true))
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, j, StateRunning)
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
				if _, ok := mgr.Registry().Get("slow"); ok {
					break // live: cancelling must roll the name back
				}
				if time.Now().After(deadline) {
					t.Fatal("running job never went live")
				}
			}
			if err := mgr.Cancel(j.ID); err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			st := j.Status()
			if st.State != StateCancelled {
				t.Fatalf("state = %s (%s), want cancelled", st.State, st.Error)
			}
			// Cancelled jobs never publish...
			if _, ok := mgr.Registry().Get("slow"); ok {
				t.Fatal("cancelled job must not publish its model")
			}
			// ...but do checkpoint partial progress for later
			// inspection/resume, under "<model>.partial" so a finished
			// model's checkpoint of the same name is never clobbered.
			ck, err := checkpoint.LoadFile(mgr.CheckpointPath("slow.partial"))
			if err != nil {
				t.Fatalf("partial checkpoint missing: %v", err)
			}
			if _, err := os.Stat(mgr.CheckpointPath("slow")); err == nil {
				t.Fatal("cancelled job wrote the finished-model checkpoint path")
			}
			// The checkpoint's epoch and updates are where its weights
			// stopped: a batch epoch is 4 updates on longSpec's 4 rows, and
			// every stream block is a point of the job's curve.
			if kind.name == "batch" && ck.Iters != 4*int64(ck.Epoch) {
				t.Fatalf("partial checkpoint epoch %d, iters %d: want iters = 4·epoch", ck.Epoch, ck.Iters)
			}
			var last CurvePoint
			if c := j.CurveResponse().Curve; len(c) > 0 {
				last = c[len(c)-1]
			}
			if kind.name == "stream" && (last.Epoch != ck.Epoch || last.Iters != ck.Iters) {
				t.Fatalf("partial checkpoint at block %d, %d updates; its last curve point at %d, %d",
					ck.Epoch, ck.Iters, last.Epoch, last.Iters)
			}
		})
	}
	mgr := NewManager(NewRegistry(), 1, "")
	defer mgr.Shutdown(context.Background())
	if err := mgr.Cancel("job-404404"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel(unknown) = %v, want ErrNotFound", err)
	}
}

// TestCheckpointBeforeTerminal pins, for each job kind, that a finished
// model's checkpoint is on disk before the job reports done: the first
// Status that reads done already finds <model>.ckpt.
func TestCheckpointBeforeTerminal(t *testing.T) {
	for _, kind := range jobKinds {
		t.Run(kind.name, func(t *testing.T) {
			mgr := NewManager(NewRegistry(), 1, t.TempDir())
			defer mgr.Shutdown(context.Background())
			j, err := mgr.Submit(kind.spec(t, mgr, "quick", false))
			if err != nil {
				t.Fatal(err)
			}
			for {
				st := j.Status()
				if st.State == StateDone {
					break
				}
				if st.State == StateFailed || st.State == StateCancelled {
					t.Fatalf("job ended %s: %s", st.State, st.Error)
				}
				runtime.Gosched()
			}
			if _, err := os.Stat(mgr.CheckpointPath("quick")); err != nil {
				t.Fatalf("job reported done before its checkpoint was written: %v", err)
			}
		})
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
