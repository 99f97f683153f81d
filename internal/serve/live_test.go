package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/objective"
	"github.com/isasgd/isasgd/internal/snapshot"
)

// TestLivePublishHammer drives the whole lock-free read path under the
// race detector: one writer hot-publishes snapshot versions (weights all
// equal to the version's Epoch) and churns unrelated registry entries,
// while reader goroutines Predict and List concurrently. Readers assert
// (a) the Seq they observe never decreases, and (b) every response is
// internally consistent — the score matches the version the response
// claims, so a torn map or version read cannot go unnoticed.
func TestLivePublishHammer(t *testing.T) {
	const dim = 32
	reg := NewRegistry()
	st := snapshot.Of(0, 0, make([]float64, dim))
	m := &Model{Name: "live", Store: st}
	m.live.Store(true)
	if err := reg.Publish(m); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var writer, readers sync.WaitGroup

	writer.Add(1)
	go func() {
		defer writer.Done()
		buf := make([]float64, dim)
		for e := 1; !stop.Load(); e++ {
			for i := range buf {
				buf[i] = float64(e)
			}
			st.PublishCopy(e, int64(e), buf)
			// Churn the copy-on-write map alongside the version swaps.
			name := fmt.Sprintf("churn-%d", e%4)
			if e%2 == 0 {
				_ = reg.Publish(&Model{Name: name, Store: snapshot.Of(e, int64(e), buf)})
			} else {
				reg.Delete(name)
			}
		}
	}()

	batch := []Instance{{Indices: []int{0, 5, 31}, Values: []float64{1, 1, 1}}}
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastSeq uint64
			for n := 0; n < 4000; n++ {
				resp, err := reg.Predict("live", batch)
				if err != nil {
					t.Errorf("Predict: %v", err)
					return
				}
				if resp.Seq < lastSeq {
					t.Errorf("Seq went backwards: %d after %d", resp.Seq, lastSeq)
					resp.Release()
					return
				}
				lastSeq = resp.Seq
				// All coordinates of the epoch-e version equal e, so the
				// 3-coordinate instance must score exactly 3e — anything else
				// is a torn read.
				if want := 3 * float64(resp.Epoch); resp.Predictions[0].Score != want {
					t.Errorf("torn read: score %g in epoch-%d version (want %g)",
						resp.Predictions[0].Score, resp.Epoch, want)
					resp.Release()
					return
				}
				if !resp.Live {
					t.Error("live model reported live=false")
					resp.Release()
					return
				}
				resp.Release()
				if n%64 == 0 {
					infos := reg.List()
					var seen bool
					for _, mi := range infos {
						if mi.Name == "live" {
							seen = true
							if mi.Seq < lastSeq {
								t.Errorf("List Seq went backwards: %d after %d", mi.Seq, lastSeq)
								return
							}
						}
					}
					if !seen {
						t.Error("live model vanished from List")
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	writer.Wait()
}

// TestPredictZeroAlloc proves the steady-state single-instance predict
// path allocates nothing: map load, version load, validation, pooled
// response, scoring and telemetry are all allocation-free once warm.
func TestPredictZeroAlloc(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	reg := NewRegistry()
	w := make([]float64, 1024)
	for i := range w {
		w[i] = float64(i)
	}
	if err := reg.Publish(&Model{Name: "m", Store: snapshot.Of(1, 1, w)}); err != nil {
		t.Fatal(err)
	}
	batch := []Instance{{Indices: []int{1, 2, 512}, Values: []float64{0.5, -1, 2}}}
	// Warm the response pool.
	for i := 0; i < 8; i++ {
		resp, err := reg.Predict("m", batch)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	if n := testing.AllocsPerRun(1000, func() {
		resp, err := reg.Predict("m", batch)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}); n != 0 {
		t.Fatalf("steady-state predict allocates %.1f objects/op, want 0", n)
	}
}

// TestPredictWireZeroAlloc extends TestPredictZeroAlloc to the body
// path of the handler: reading and parsing a 32-nnz shorthand body and a
// 4-instance body into the pooled scratch, scoring them and encoding
// their answers allocate nothing once warm.
func TestPredictWireZeroAlloc(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	reg := NewRegistry()
	w := make([]float64, 1024)
	for i := range w {
		w[i] = float64(i) / 7
	}
	if err := reg.Publish(&Model{Name: "m", Store: snapshot.Of(1, 1, w)}); err != nil {
		t.Fatal(err)
	}
	in := benchInstance(len(w), 32, 3)
	shorthand, err := json.Marshal(PredictRequest{Indices: in.Indices, Values: in.Values})
	if err != nil {
		t.Fatal(err)
	}
	four, err := json.Marshal(PredictRequest{Instances: []Instance{
		benchInstance(len(w), 8, 4), benchInstance(len(w), 8, 5),
		benchInstance(len(w), 8, 6), benchInstance(len(w), 8, 7),
	}})
	if err != nil {
		t.Fatal(err)
	}
	rd, rec := new(bytes.Reader), httptest.NewRecorder()
	serve := func(body []byte) {
		sc := getPredictScratch()
		defer putPredictScratch(sc)
		rd.Reset(body)
		var req PredictRequest
		if !decodePredict(rec, rd, sc, &req) {
			t.Fatalf("%s: rejected: %s", body, rec.Body)
		}
		batch, ok := sc.batch(&req)
		if !ok {
			t.Fatalf("%s: no instances", body)
		}
		resp, err := reg.Predict("m", batch)
		if err != nil {
			t.Fatal(err)
		}
		sc.out = appendPredictResponse(sc.out[:0], resp)
		resp.Release()
	}
	for i := 0; i < 8; i++ {
		serve(shorthand)
		serve(four)
	}
	for _, body := range [][]byte{shorthand, four} {
		if n := testing.AllocsPerRun(1000, func() { serve(body) }); n != 0 {
			t.Fatalf("steady-state decode, predict and encode of %d bytes allocate %.1f objects/op, want 0", len(body), n)
		}
	}
}

// predictHot POSTs a single-instance predict against the named model and
// decodes the response; ok is false on a non-200 status.
func predictHot(t *testing.T, base, name string) (PredictResponse, bool) {
	t.Helper()
	resp := postJSON(t, base+"/v1/models/"+name+"/predict", PredictRequest{
		Indices: []int{0, 1}, Values: []float64{1, 0.5},
	})
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return PredictResponse{}, false
	}
	return decodeBody[PredictResponse](t, resp), true
}

// TestLiveModelEpochAdvances is the train-and-serve acceptance path: a
// running job's model is predictable mid-training, reports live=true,
// and its Epoch/Seq advance between requests before the job completes.
// Cancelling the job afterwards withdraws the live model (rollback).
func TestLiveModelEpochAdvances(t *testing.T) {
	ts, mgr, _ := testServer(t, 1)
	resp := postJSON(t, ts.URL+"/v1/jobs", longSpec("hot"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	sub := decodeBody[JobStatus](t, resp)

	// Poll predictions until we have observed the epoch advance across a
	// live model (two distinct epochs, non-decreasing Seq).
	deadline := time.Now().Add(60 * time.Second)
	var epochs []int
	var lastSeq uint64
	for time.Now().Before(deadline) {
		pr, ok := predictHot(t, ts.URL, "hot")
		if !ok { // model not registered yet (job still queued)
			time.Sleep(time.Millisecond)
			continue
		}
		if !pr.Live {
			t.Fatalf("mid-training model reported live=false (epoch %d)", pr.Epoch)
		}
		if pr.Seq < lastSeq {
			t.Fatalf("Seq went backwards over HTTP: %d after %d", pr.Seq, lastSeq)
		}
		lastSeq = pr.Seq
		if len(epochs) == 0 || epochs[len(epochs)-1] != pr.Epoch {
			epochs = append(epochs, pr.Epoch)
		}
		if len(epochs) >= 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(epochs) < 3 {
		t.Fatalf("live epoch never advanced: observed %v", epochs)
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Fatalf("epochs not increasing: %v", epochs)
		}
	}
	if st := decodeBody[JobStatus](t, postGet(t, ts.URL+"/v1/jobs/"+sub.ID)); st.State.Terminal() {
		t.Fatalf("job finished before live observation completed: %+v", st)
	}

	// Cancelling rolls the live model back out of the registry.
	if err := mgr.Cancel(sub.ID); err != nil {
		t.Fatal(err)
	}
	j, _ := mgr.Get(sub.ID)
	<-j.Done()
	if _, ok := mgr.Registry().Get("hot"); ok {
		t.Fatal("cancelled job's live model was not rolled back")
	}
}

// TestLiveModelFinalizes: once the job completes, the same model (same
// registry entry — no republish) flips to live=false and serves the
// final epoch.
func TestLiveModelFinalizes(t *testing.T) {
	ts, _, _ := testServer(t, 1)
	spec := longSpec("final")
	spec.Epochs = 300
	spec.EvalEvery = 100
	resp := postJSON(t, ts.URL+"/v1/jobs", spec)
	sub := decodeBody[JobStatus](t, resp)
	if st := pollJob(t, ts.URL, sub.ID); st.State != StateDone {
		t.Fatalf("job state = %s (err %q)", st.State, st.Error)
	}
	pr, ok := predictHot(t, ts.URL, "final")
	if !ok {
		t.Fatal("finished model not predictable")
	}
	if pr.Live {
		t.Fatal("finished model still reports live=true")
	}
	if pr.Epoch != 300 {
		t.Fatalf("finished model epoch = %d, want 300", pr.Epoch)
	}
	if pr.Seq == 0 {
		t.Fatal("finished model has no version seq")
	}
}

// postGet is http.Get with test-fatal error handling.
func postGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestLiveModelLifecycleRespectsExternalWriters pins the interaction of
// live publication with clients mutating the registry mid-job: finalize
// republishes when the live entry was deleted or replaced (completion
// wins the name, the pre-snapshot contract), and rollback leaves an
// entry alone once someone else holds the name.
func TestLiveModelLifecycleRespectsExternalWriters(t *testing.T) {
	mgr := NewManager(NewRegistry(), 1, "")
	obj := parsedObjective(t)

	// finalize after an external DELETE: the finished model reappears.
	lv := mgr.newLiveModel(&Job{model: "a"}, obj, "ds", snapshot.Of(1, 1, []float64{1}))
	lv.publish()
	if !mgr.Registry().Delete("a") {
		t.Fatal("external delete failed")
	}
	if err := lv.finalize(); err != nil {
		t.Fatal(err)
	}
	if cur, ok := mgr.Registry().Get("a"); !ok || cur != lv.m || cur.Live() {
		t.Fatalf("finalize after delete did not republish the finished model (ok=%v)", ok)
	}

	// finalize after an external replace: the job's completion wins.
	lv2 := mgr.newLiveModel(&Job{model: "b"}, obj, "ds", snapshot.Of(1, 1, []float64{2}))
	lv2.publish()
	imported := &Model{Name: "b", Store: snapshot.Of(9, 9, []float64{9})}
	if err := mgr.Registry().Publish(imported); err != nil {
		t.Fatal(err)
	}
	if err := lv2.finalize(); err != nil {
		t.Fatal(err)
	}
	if cur, _ := mgr.Registry().Get("b"); cur != lv2.m {
		t.Fatal("finalize after replace did not restore the finished model")
	}

	// rollback after an external replace: the imported model survives.
	lv3 := mgr.newLiveModel(&Job{model: "c"}, obj, "ds", snapshot.Of(1, 1, []float64{3}))
	lv3.publish()
	imported2 := &Model{Name: "c", Store: snapshot.Of(9, 9, []float64{9})}
	if err := mgr.Registry().Publish(imported2); err != nil {
		t.Fatal(err)
	}
	lv3.rollback()
	if cur, ok := mgr.Registry().Get("c"); !ok || cur != imported2 {
		t.Fatal("rollback clobbered a model published over the live name")
	}

	// rollback after an external delete: the name stays gone.
	lv4 := mgr.newLiveModel(&Job{model: "d"}, obj, "ds", snapshot.Of(1, 1, []float64{4}))
	lv4.publish()
	mgr.Registry().Delete("d")
	lv4.rollback()
	if _, ok := mgr.Registry().Get("d"); ok {
		t.Fatal("rollback resurrected a deleted name")
	}
}

// parsedObjective resolves the default objective the way job compilation
// does.
func parsedObjective(t *testing.T) objective.Objective {
	t.Helper()
	r, err := compile(JobSpec{Dataset: "small"}, false, "")
	if err != nil {
		t.Fatal(err)
	}
	return r.obj
}

// TestRollbackRestoresPreviousModel: a live job over an existing name
// that fails (here: cancelled) restores the previously published model
// instead of leaving the name dangling.
func TestRollbackRestoresPreviousModel(t *testing.T) {
	ts, mgr, _ := testServer(t, 1)
	// A finished model owns the name first.
	spec := longSpec("shared")
	spec.Epochs = 5
	spec.EvalEvery = 1
	sub := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", spec))
	if st := pollJob(t, ts.URL, sub.ID); st.State != StateDone {
		t.Fatalf("seed job state = %s", st.State)
	}
	before, _ := predictHot(t, ts.URL, "shared")

	// A long job takes the name over (live), then is cancelled.
	sub2 := decodeBody[JobStatus](t, postJSON(t, ts.URL+"/v1/jobs", longSpec("shared")))
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if pr, ok := predictHot(t, ts.URL, "shared"); ok && pr.Live {
			// The retrain gate: a name that was serving a finished model
			// must not go live before at least one trained epoch.
			if pr.Epoch < 1 {
				t.Fatalf("retrain went live with untrained weights (epoch %d)", pr.Epoch)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := mgr.Cancel(sub2.ID); err != nil {
		t.Fatal(err)
	}
	j, _ := mgr.Get(sub2.ID)
	<-j.Done()

	after, ok := predictHot(t, ts.URL, "shared")
	if !ok {
		t.Fatal("name vanished after rollback")
	}
	if after.Live {
		t.Fatal("rolled-back model reports live=true")
	}
	if after.Epoch != before.Epoch || after.Predictions[0] != before.Predictions[0] {
		t.Fatalf("rollback did not restore the previous model: before %+v after %+v",
			before, after)
	}
}
