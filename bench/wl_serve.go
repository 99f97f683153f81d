package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/serve"
	"github.com/isasgd/isasgd/internal/snapshot"
	"github.com/isasgd/isasgd/internal/xrand"
)

const (
	fleetModels   = 8
	fleetHot      = 2 // the two most requested models are republished while reads run
	fleetNNZ      = 32
	fleetBodies   = 256
	fleetCheckOne = 64 // every 64th response is decoded and re-scored
	republishGap  = 250 * time.Millisecond

	// The closed loop's good responses are counted in 10 ms buckets and
	// throughput_per_s is the best 50 ms stretch of them: over eight runs
	// on the reference box the best 50 ms stayed within 2 % (13 % with a
	// run that fell into a slow spell of the host) where the best 250 ms
	// window moved by 8 % (44 %) and the mean by 27 %.
	throughputBucket  = 10 * time.Millisecond
	throughputStretch = 5
)

// fleetWeight is coordinate j of version seq of model m: a pure function
// of (seed, m, seq, j), so the score any response should carry can be
// recomputed from the seq it is stamped with. An f32-stamped model's
// weights are exactly float32-representable, as a float32 training run's
// would be.
func fleetWeight(seed uint64, m int, seq uint64, j int, f32 bool) float64 {
	x := repSeed(seed^uint64(m)<<56^seq<<28, j)
	u := float64(x>>11)/(1<<52) - 1 // [-1, 1)
	if f32 {
		return float64(float32(u))
	}
	return u
}

func fleetWeights(dst []float64, seed uint64, m int, seq uint64, f32 bool) []float64 {
	for j := range dst {
		dst[j] = fleetWeight(seed, m, seq, j, f32)
	}
	return dst
}

type predictBody struct {
	raw []byte
	idx []int
	val []float64
}

type fleetNode struct {
	mgr *serve.Manager
	srv *server
}

func (n *fleetNode) close() {
	n.srv.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	n.mgr.Shutdown(ctx) //nolint:errcheck // no jobs were submitted
	cancel()
}

// fleet is an origin and a read-only replica, each behind its own loopback
// listener in this process, with the replica fed by a Replicator.
type fleet struct {
	seed     uint64
	dim      int
	origin   *fleetNode
	replica  *fleetNode
	names    []string
	f32      []bool
	stores   []*snapshot.Store // the origin's
	bodies   []predictBody
	client   *http.Client
	stopRepl func()

	originMeter, replicaMeter *httpMeter // traced pass only

	// corruptOne makes the checker expect a wrong score once: the test
	// that a failed check fails the command.
	corruptOne atomic.Bool

	conns []fleetConn
}

// fleetConn is one load-generator connection's private state.
type fleetConn struct {
	rng       *xrand.Rand
	zipf      *xrand.Zipf
	respBytes int64
	resps     int64
}

func startNode(opts serve.ServerOptions, meter *httpMeter, route func(*http.Request) string) (*fleetNode, error) {
	mgr := serve.NewManager(serve.NewRegistry(), 1, "")
	var h http.Handler = serve.NewServerOpts(mgr, opts)
	if meter != nil {
		h = meter.wrap(h, route)
	}
	srv, err := listen(h)
	if err != nil {
		return nil, err
	}
	return &fleetNode{mgr: mgr, srv: srv}, nil
}

func originRoute(r *http.Request) string {
	if r.URL.Path == "/v1/replicate" {
		return "serve.replicate"
	}
	return ""
}

func replicaRoute(r *http.Request) string {
	if strings.HasSuffix(r.URL.Path, "/predict") {
		return "serve.predict"
	}
	return ""
}

// newFleet is serve_fleet's whole set-up: listeners up, models published
// on the origin, mirrored to the replica, connections warm.
func newFleet(cfg config, tr *tracer) (f *fleet, err error) {
	f = &fleet{seed: cfg.seed, dim: 120000}
	warm := 300 * time.Millisecond
	if cfg.quick {
		f.dim, warm = 2000, 30*time.Millisecond
	}
	if tr != nil {
		f.originMeter, f.replicaMeter = newHTTPMeter(tr, -1), newHTTPMeter(tr, -1)
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.origin, err = startNode(serve.ServerOptions{}, f.originMeter, originRoute); err != nil {
		return f, err
	}
	if f.replica, err = startNode(serve.ServerOptions{ReadOnly: true}, f.replicaMeter, replicaRoute); err != nil {
		return f, err
	}

	w := make([]float64, f.dim)
	for m := 0; m < fleetModels; m++ {
		st := snapshot.NewStore()
		f32 := m%2 == 1 // the two hottest models are one of each dtype
		if f32 {
			st.SetDType(model.PrecisionF32)
		}
		st.PublishCopy(1, 1, fleetWeights(w, f.seed, m, 1, f32))
		name := fmt.Sprintf("m%d", m)
		if err = f.origin.mgr.Registry().Publish(&serve.Model{
			Name: name, Algo: "is-asgd", Objective: "logistic-l1", Dataset: "bench", Store: st,
		}); err != nil {
			return f, err
		}
		f.names, f.f32, f.stores = append(f.names, name), append(f.f32, f32), append(f.stores, st)
	}

	repl, err := serve.NewReplicator(serve.ReplicatorConfig{
		Origin: f.origin.srv.url, Registry: f.replica.mgr.Registry(),
		Interval: 100 * time.Millisecond, Log: quietLog(), Seed: f.seed,
	})
	if err != nil {
		return f, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	replDone := make(chan struct{})
	go func() {
		defer close(replDone)
		repl.Run(ctx) //nolint:errcheck // nil on cancel
	}()
	f.stopRepl = func() { cancel(); <-replDone }
	if err = f.awaitMirror(30 * time.Second); err != nil {
		return f, err
	}

	// Requests: one instance of 32 features, zipf over features,
	// serialised once.
	rng := xrand.New(f.seed ^ 0xb0d1e5)
	feat := xrand.NewZipf(f.dim, 1.0)
	nnz := min(fleetNNZ, f.dim/4)
	for b := 0; b < fleetBodies; b++ {
		pb := predictBody{}
		seen := map[int]bool{}
		for len(pb.idx) < nnz {
			if j := feat.Sample(rng); !seen[j] {
				seen[j] = true
				pb.idx = append(pb.idx, j)
				pb.val = append(pb.val, rng.NormFloat64())
			}
		}
		if pb.raw, err = json.Marshal(serve.PredictRequest{Indices: pb.idx, Values: pb.val}); err != nil {
			return f, err
		}
		f.bodies = append(f.bodies, pb)
	}
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.nproc, MaxConnsPerHost: cfg.nproc}}
	f.conns = make([]fleetConn, cfg.nproc)
	for c := range f.conns {
		f.conns[c].rng = xrand.New(repSeed(f.seed, c))
		f.conns[c].zipf = xrand.NewZipf(fleetModels, 1.1)
	}
	if res := closedLoop(cfg.nproc, warm, 1, f.send); res.failed > 0 {
		return f, fmt.Errorf("warm-up: %d of %d requests failed", res.failed, res.sent)
	}
	for c := range f.conns {
		f.conns[c].respBytes, f.conns[c].resps = 0, 0
	}
	if f.replicaMeter != nil {
		f.replicaMeter.reset()
		f.originMeter.reset()
	}
	return f, nil
}

func (f *fleet) close() {
	if f.stopRepl != nil {
		f.stopRepl()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	for _, n := range []*fleetNode{f.replica, f.origin} {
		if n != nil {
			n.close()
		}
	}
}

// awaitMirror waits until the replica holds every model at the origin's
// seq.
func (f *fleet) awaitMirror(patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		behind := ""
		for m, name := range f.names {
			rm, ok := f.replica.mgr.Registry().Get(name)
			if !ok || rm.Version().Seq != f.stores[m].Seq() {
				behind = name
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica did not reach the origin's seq for %s within %v", behind, patience)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// send posts one predict to the replica and checks it: every response
// must be 200; every 64th is decoded and its score recomputed from the
// generator's weights for the seq it is stamped with.
func (f *fleet) send(conn, i int) bool {
	c := &f.conns[conn]
	m := c.zipf.Sample(c.rng)
	body := f.bodies[c.rng.Intn(len(f.bodies))]
	resp, err := f.client.Post(f.replica.srv.url+"/v1/models/"+f.names[m]+"/predict", "application/json", bytes.NewReader(body.raw))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if i%fleetCheckOne != 0 {
		n, _ := io.Copy(io.Discard, resp.Body)
		c.respBytes += n
		c.resps++
		return resp.StatusCode == http.StatusOK
	}
	raw, err := io.ReadAll(resp.Body)
	c.respBytes += int64(len(raw))
	c.resps++
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var pr serve.PredictResponse
	if json.Unmarshal(raw, &pr) != nil || pr.Model != f.names[m] || len(pr.Predictions) != 1 {
		return false
	}
	want := 0.0
	for k, j := range body.idx {
		want += body.val[k] * fleetWeight(f.seed, m, pr.Seq, j, f.f32[m])
	}
	if f.corruptOne.CompareAndSwap(true, false) {
		want++
	}
	return math.Abs(pr.Predictions[0].Score-want) <= 1e-9*(1+math.Abs(want))
}

// republisher publishes a new version of the hot models to the origin
// every republishGap for as long as it runs, and watches the replica for
// each: the lag of version k is from the PublishCopy call for k on the
// origin until the replica model's Store.Wait wakes holding seq >= k.
// The two hot models (one f64, shipped as JSON; one f32, shipped packed)
// are republished in the same tick at the same seq, and a tick's lag is
// the mean of the two: their lags differ several-fold, so a median over
// the pooled samples would sit in the gap between two modes.
type republisher struct {
	f         *fleet
	stopPub   context.CancelFunc
	pubDone   chan struct{}
	stopWatch context.CancelFunc
	watchers  sync.WaitGroup

	mu        sync.Mutex
	calledAt  [fleetHot]map[uint64]time.Time
	lagOf     [fleetHot]map[uint64]float64 // seconds, by seq
	publishes int
}

// lags returns one sample per tick both hot models' watchers saw.
func (p *republisher) lags() []float64 {
	var out []float64
	for seq, a := range p.lagOf[0] {
		if b, ok := p.lagOf[1][seq]; ok {
			out = append(out, (a+b)/2)
		}
	}
	return out
}

func (f *fleet) startRepublisher(gap time.Duration) *republisher {
	pubCtx, stopPub := context.WithCancel(context.Background())
	watchCtx, stopWatch := context.WithCancel(context.Background())
	p := &republisher{f: f, stopPub: stopPub, pubDone: make(chan struct{}), stopWatch: stopWatch}
	for m := 0; m < fleetHot; m++ {
		p.calledAt[m] = make(map[uint64]time.Time)
		p.lagOf[m] = make(map[uint64]float64)
		rm, _ := f.replica.mgr.Registry().Get(f.names[m])
		p.watchers.Add(1)
		go func() {
			defer p.watchers.Done()
			last := rm.Store.Seq()
			for {
				v := rm.Store.Wait(watchCtx, last)
				if v == nil {
					return
				}
				now := time.Now()
				p.mu.Lock()
				for k := last + 1; k <= v.Seq; k++ {
					if t, ok := p.calledAt[m][k]; ok {
						p.lagOf[m][k] = now.Sub(t).Seconds()
					}
				}
				p.mu.Unlock()
				last = v.Seq
			}
		}()
	}
	go func() {
		defer close(p.pubDone)
		w := make([]float64, f.dim)
		tick := time.NewTicker(gap)
		defer tick.Stop()
		for {
			select {
			case <-pubCtx.Done():
				return
			case <-tick.C:
			}
			for m := 0; m < fleetHot; m++ {
				seq := f.stores[m].Seq() + 1
				fleetWeights(w, f.seed, m, seq, f.f32[m])
				p.mu.Lock()
				p.calledAt[m][seq] = time.Now()
				p.publishes++
				p.mu.Unlock()
				f.stores[m].PublishCopy(int(seq), int64(seq), w)
			}
		}
	}()
	return p
}

// stop ends publishing, lets the replica catch up, and checks that it
// did: the origin's final seq and identical bytes for every model.
func (p *republisher) stop(r *run) {
	f := p.f
	p.stopPub()
	<-p.pubDone
	err := f.awaitMirror(5 * time.Second)
	p.stopWatch()
	p.watchers.Wait()
	if err != nil {
		r.violation("%v", err)
		return
	}
	for m, name := range f.names {
		rm, _ := f.replica.mgr.Registry().Get(name)
		ov, rv := f.stores[m].Load(), rm.Version()
		same := ov.Seq == rv.Seq && len(ov.Weights) == len(rv.Weights)
		for j := 0; same && j < len(ov.Weights); j++ {
			same = ov.Weights[j] == rv.Weights[j]
		}
		if !same {
			r.violation("replica's %s differs from the origin's at seq %d", name, ov.Seq)
		}
	}
}

func runServe(r *run) error {
	cfg := r.cfg
	if err := checkConns(cfg.nproc, cfg.nproc); err != nil {
		return err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.workload)
		r.tr = tr
	}
	fx, err := setUp(r, func() (*fleet, error) { return newFleet(cfg, tr) }, (*fleet).close)
	if err != nil {
		return err
	}
	defer fx.close()
	fx.corruptOne.Store(cfg.corrupt)
	gap := republishGap
	if cfg.quick {
		gap = 20 * time.Millisecond
	}
	seconds := func(share float64) time.Duration { return time.Duration(share * cfg.seconds * float64(time.Second)) }

	if !cfg.trace {
		pub := fx.startRepublisher(gap)
		res := closedLoop(cfg.nproc, seconds(1), int(seconds(1)/throughputBucket), fx.send)
		pub.stop(r)
		r.ops(res.sent, res.failed, "predict requests")
		lags := pub.lags()
		if len(lags) == 0 {
			r.violation("no republished version was seen on the replica")
			return nil
		}
		// The best stretch of the closed loop and the fastest replication,
		// for the reason timeline gives; the medians are in the base.
		best, perS := 0, make([]float64, 0, len(res.perWindow))
		for w := range res.perWindow {
			perS = append(perS, float64(res.perWindow[w])/res.windowS)
			if w+throughputStretch <= len(res.perWindow) {
				n := 0
				for _, c := range res.perWindow[w : w+throughputStretch] {
					n += c
				}
				best = max(best, n)
			}
		}
		sort.Float64s(lags)
		r.set("throughput_per_s", float64(best)/(throughputStretch*res.windowS), len(perS),
			fmt.Sprintf("best %v of the closed loop (median %v bucket: %.0f/s)", throughputStretch*throughputBucket, throughputBucket, median(perS)))
		r.set("time_to_target_s", lags[0], len(lags), fmt.Sprintf("fastest of %d republished versions (median %.4f s)", len(lags), median(lags)))
		r.res.ClockS = cfg.seconds
		return nil
	}

	// Traced pass: a closed loop for capacity and the handler's share,
	// then the open loop at three fixed rates.
	mem := startMemProbe()
	pub := fx.startRepublisher(gap)
	before, err := fx.scrapePhases()
	if err != nil {
		return err
	}
	root := tr.begin("closed_loop", -1, 0)
	fx.replicaMeter.parent = root
	closed := closedLoop(cfg.nproc, seconds(0.4), 10, fx.send)
	tr.end(root)
	after, err := fx.scrapePhases()
	if err != nil {
		return err
	}
	r.ops(closed.sent, closed.failed, "predict requests (closed loop)")
	for _, n := range closed.perWindow {
		r.add("predict_qps", float64(n)/closed.windowS)
	}
	_, handlerS, _, _ := fx.replicaMeter.stats("serve.predict")
	clientS := percentile(closed.lat, 0.5)
	r.set("serve.handler_us_p50", handlerS*1e6, closed.sent, "")
	r.set("serve.client_overhead_us", (clientS-handlerS)*1e6, closed.sent, "client p50 minus handler p50, closed loop")
	for _, ph := range []string{"decode", "resolve", "score", "encode"} {
		if n := after[ph].count - before[ph].count; n > 0 {
			r.set("serve.phase_"+ph+"_us", (after[ph].sum-before[ph].sum)/n*1e6, int(n), "")
		}
	}
	var respBytes, resps int64
	for c := range fx.conns {
		respBytes += fx.conns[c].respBytes
		resps += fx.conns[c].resps
	}
	r.set("serve.resp_bytes", float64(respBytes)/float64(max(resps, 1)), int(resps), "")

	rates := []float64{rate1, rate2, rate3}
	if cfg.quick {
		rates = []float64{200, 400, 600}
	}
	sloRate, lateWorst := 0.0, 0.0
	for i, rate := range rates {
		root := tr.begin(fmt.Sprintf("open_loop_%g", rate), -1, i)
		fx.replicaMeter.parent = root
		open := openLoop(cfg.nproc, rate, seconds(0.2), fx.send)
		tr.end(root)
		r.ops(open.sent, open.failed, fmt.Sprintf("predict requests (open loop, %g/s)", rate))
		lateWorst = max(lateWorst, open.lateShare())
		if open.within(sloMs/1e3) >= 0.99 && open.backlogEnd <= max(open.backlogMid, cfg.nproc) {
			sloRate = rate
		}
		if i == 1 {
			q := tailPercentile(len(open.lat))
			r.set("predict_p50_ms", percentile(open.lat, 0.5)*1e3, len(open.lat), fmt.Sprintf("from due time at %g/s", rate))
			r.set("predict_p99_ms", percentile(open.lat, q)*1e3, len(open.lat), fmt.Sprintf("from due time at %g/s", rate))
			if q != 0.99 {
				r.note("predict_p99_ms is p%g: %d requests leave fewer than ten beyond p99", q*100, len(open.lat))
			}
		}
	}
	pub.stop(r)
	r.set("slo_rate", sloRate, len(rates), fmt.Sprintf("highest of %v/s with 99%% within %g ms and no growing backlog", rates, sloMs))
	r.set("loadgen.late_share", lateWorst, len(rates), "worst open-loop phase")
	for _, lag := range pub.lags() {
		r.add("replica_lag_ms", lag*1e3)
	}
	pulls, _, _, pullBytes := fx.originMeter.stats("serve.replicate")
	r.set("serve.replicate_pulls", float64(pulls), pulls, "")
	r.set("serve.replicate_resp_bytes", pullBytes, pulls, "")
	r.set("snapshot.publishes", float64(pub.publishes), pub.publishes, "")
	mem.report(r)
	r.res.ClockS = cfg.seconds
	if lateWorst > 0.01 {
		r.note("%.1f%% of an open-loop phase's sends started more than %v past due: the generator shares %d cores with the servers, and while a republished version is encoded and decoded both are taken for tens of ms; latency is from due time, so the stall is charged to the requests behind it",
			100*lateWorst, lateAfter, cfg.nproc)
	}

	// The scoring core without HTTP, and the layers replication rides on.
	reg := fx.replica.mgr.Registry()
	const direct = 200000
	for p := 0; p < replayPasses; p++ {
		t0 := time.Now()
		for i := 0; i < direct; i++ {
			b := &fx.bodies[i%len(fx.bodies)]
			resp, err := reg.Predict(fx.names[i%fleetModels], []serve.Instance{{Indices: b.idx, Values: b.val}})
			if err != nil {
				return err
			}
			resp.Release()
		}
		r.add("serve.registry_predict_ns", float64(time.Since(t0))/direct)
	}
	w := fx.stores[1].Load().Weights
	replayWire32(r, w)
	replaySnapshot(r, fx.dim, copyFill(w))
	// Tracing cannot be switched off per request here, so its cost is
	// taken from the wrapper's own price: two clock reads and a span.
	t0 := time.Now()
	probe := newTracer("probe")
	for i := 0; i < direct; i++ {
		probe.end(probe.begin("x", -1, 0))
	}
	r.set("trace.overhead_share", time.Since(t0).Seconds()/direct/handlerS, direct, "one span's cost over the handler's median")

	r.res.Shares = map[string]float64{
		"serve (handler)":                handlerS / clientS,
		"loadgen+net/http (rest of p50)": 1 - handlerS/clientS,
	}
	r.note("layer_shares are of the client's closed-loop median (%.0f us); no training layer runs in this workload", clientS*1e6)
	return nil
}

type phaseStat struct{ sum, count float64 }

// scrapePhases reads isasgd_predict_phase_seconds from the replica's
// /metrics, the counters the program already exports.
func (f *fleet) scrapePhases() (map[string]phaseStat, error) {
	resp, err := f.client.Get(f.replica.srv.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]phaseStat)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "isasgd_predict_phase_seconds_")
		if !ok {
			continue
		}
		// sum{phase="decode"} 0.0123
		kind, rest, _ := strings.Cut(rest, `{phase="`)
		phase, val, _ := strings.Cut(rest, `"} `)
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		ps := out[phase]
		switch kind {
		case "sum":
			ps.sum = v
		case "count":
			ps.count = v
		}
		out[phase] = ps
	}
	return out, sc.Err()
}
