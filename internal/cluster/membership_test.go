package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// pullStatus GETs a pull with query and returns its status, failing the
// test unless a non-200 answer is a JSON error body.
func pullStatus(t *testing.T, srv *httptest.Server, query string) int {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/v1/cluster/pull?" + query)
	if err != nil {
		t.Error(err)
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" ||
			resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("pull %s: status %d without a JSON error body (%v)", query, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// TestStartBarrier pins the start barrier: with K = 2 declared, worker
// 0's first pull waits until worker 1 has pulled too, then both get
// version 1.
func TestStartBarrier(t *testing.T) {
	c, srv := startCoordinator(t, CoordinatorConfig{Dim: 4, PollTimeout: 10 * time.Second})
	first := make(chan int, 1)
	go func() { first <- pullStatus(t, srv, "since=0&worker=0&workers=2") }()
	select {
	case st := <-first:
		t.Fatalf("worker 0's first pull answered %d before worker 1 pulled", st)
	case <-time.After(100 * time.Millisecond):
	}
	start := time.Now()
	if st := pullStatus(t, srv, "since=0&worker=1&workers=2"); st != http.StatusOK {
		t.Fatalf("worker 1's first pull: status %d", st)
	}
	if st := <-first; st != http.StatusOK {
		t.Fatalf("worker 0's first pull: status %d", st)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("the barrier opened %v after the last worker pulled", d)
	}
	if got := c.Stats().Workers; got != 2 {
		t.Fatalf("workers seen = %d, want 2", got)
	}
}

// TestMembershipRefusesOutsiders pins the ID range: once a pull has
// declared K, a pull or push from an ID ≥ K and a pull declaring another
// count are answered with a JSON 400. A declaring pull that is itself
// refused, with no ID or an ID outside its own count, fixes nothing, so
// when one arrives first the real workers are still admitted.
func TestMembershipRefusesOutsiders(t *testing.T) {
	for name, first := range map[string][]string{
		"member first":        nil,
		"refused pulls first": {"since=1&workers=3", "since=1&worker=5&workers=2", "since=1&worker=3&workers=3"},
	} {
		t.Run(name, func(t *testing.T) {
			c, srv := startCoordinator(t, CoordinatorConfig{Dim: 4, PollTimeout: 20 * time.Millisecond})
			for _, q := range first {
				if st := pullStatus(t, srv, q); st != http.StatusBadRequest {
					t.Errorf("pull %s: status %d, want 400", q, st)
				}
			}
			for _, q := range []string{"since=1&worker=1&workers=2", "since=1&worker=0&workers=2"} {
				if st := pullStatus(t, srv, q); st != http.StatusOK {
					t.Fatalf("member pull %s: status %d", q, st)
				}
			}
			for _, q := range []string{"since=1&worker=2", "since=1&worker=0&workers=3", "since=1&workers=0", "since=1&workers=x"} {
				if st := pullStatus(t, srv, q); st != http.StatusBadRequest {
					t.Errorf("pull %s: status %d, want 400", q, st)
				}
			}
			cl := &rpcClient{hc: srv.Client(), base: srv.URL, policy: RetryPolicy{}.withDefaults(),
				rng: newTestRand(), log: quietLogger()}
			status, _, err := sendPush(cl, PushRequest{Worker: 2, Seq: 1, Idx: []int{0}, Val: []float64{0.5}, Updates: 1})
			if status != http.StatusBadRequest || err == nil {
				t.Fatalf("push from worker 2: status %d, err %v; want 400", status, err)
			}
			if st := c.Stats(); st.Bad != 1 || st.Applied != 0 || st.Seq != 1 {
				t.Fatalf("after the outsider's push: %+v, want it counted bad and not applied", st)
			}
		})
	}
}

// TestExitOnDoneWaitsForAllK is the late-worker case: worker 0 trains a
// round alone (its first pull waits out the start barrier), the round
// spends the update budget and worker 0 sees Done, yet DoneAcked holds
// until worker 1, starting only then, has seen Done too.
func TestExitOnDoneWaitsForAllK(t *testing.T) {
	ds, obj := testCorpus(t)
	w0, err := NewWorker(workerCfg(ds, obj, 0, 2, "http://127.0.0.1:1"))
	if err != nil {
		t.Fatal(err)
	}
	c, srv := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), MaxUpdates: int64(w0.ShardRows()), PollTimeout: 200 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	run := func(id int) WorkerStats {
		w, err := NewWorker(workerCfg(ds, obj, id, 2, srv.URL))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(ctx); err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
		return w.Stats()
	}
	if st := run(0); st.Applied != 1 {
		t.Fatalf("worker 0: %+v, want one applied round", st)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("the run is not done after worker 0 spent the budget")
	}
	select {
	case <-c.DoneAcked():
		t.Fatal("DoneAcked fired before worker 1 saw Done")
	default:
	}
	if st := run(1); st.Rounds != 0 {
		t.Fatalf("worker 1 trained %d rounds after the run was done", st.Rounds)
	}
	select {
	case <-c.DoneAcked():
	case <-time.After(5 * time.Second):
		t.Fatal("DoneAcked did not fire once both workers saw Done")
	}
}

// delayPushes is a transport that holds each push back for delay and
// records when the first one left for the coordinator.
type delayPushes struct {
	delay     time.Duration
	mu        sync.Mutex
	firstSent time.Time
}

func (d *delayPushes) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost {
		time.Sleep(d.delay)
		d.mu.Lock()
		if d.firstSent.IsZero() {
			d.firstSent = time.Now()
		}
		d.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestDoneWaitsForEveryMembersPush: worker 0's first push spends the
// update budget, but worker 1's pushes are held back on the wire. The
// run must not be done until worker 1's first push has reached the
// coordinator and been applied; the poll window is long enough that it
// cannot be what ends the wait.
func TestDoneWaitsForEveryMembersPush(t *testing.T) {
	ds, obj := testCorpus(t)
	probe, err := NewWorker(workerCfg(ds, obj, 0, 2, "http://127.0.0.1:1"))
	if err != nil {
		t.Fatal(err)
	}
	c, srv := startCoordinator(t, CoordinatorConfig{
		Dim: ds.Dim(), MaxUpdates: int64(probe.ShardRows()), PollTimeout: 10 * time.Second,
	})
	var doneAt time.Time
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		<-c.Done()
		doneAt = time.Now()
	}()
	slow := &delayPushes{delay: 300 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stats := make([]WorkerStats, 2)
	var wg sync.WaitGroup
	for id := range stats {
		cfg := workerCfg(ds, obj, id, 2, srv.URL)
		if id == 1 {
			cfg.HTTPClient = &http.Client{Transport: slow}
		}
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %d: %v", id, err)
			}
			stats[id] = w.Stats()
		}()
	}
	wg.Wait()
	<-watched
	if stats[1].Applied == 0 {
		t.Fatalf("worker 1 had no push applied: %+v", stats[1])
	}
	slow.mu.Lock()
	sent := slow.firstSent
	slow.mu.Unlock()
	if doneAt.Before(sent) {
		t.Fatalf("the run was done %v before worker 1's first push left", sent.Sub(doneAt))
	}
	if d := doneAt.Sub(sent); d > 5*time.Second {
		t.Fatalf("the run was done %v after worker 1's first push, not at it", d)
	}
}
