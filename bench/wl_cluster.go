package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/isasgd/isasgd/internal/balance"
	"github.com/isasgd/isasgd/internal/cluster"
	"github.com/isasgd/isasgd/internal/core"
	"github.com/isasgd/isasgd/internal/dataset"
	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/snapshot"
)

const (
	clusterWorkers = 2
	clusterEpochs  = 6 // update budget, in passes over the train split
	// clusterPatience bounds one rep; a star that neither converges nor
	// spends its budget by then has hung.
	clusterPatience = 90 * time.Second
)

// clusterRep is one run of the star: coordinator, listener, two workers.
type clusterRep struct {
	trainRep                    // the clock runs from the workers' start to Coordinator.Done()
	stats         cluster.Stats // after the workers left
	pushesSent    int64
	workerUpdates int64
	workerWallS   float64
	meter         *httpMeter
}

func clusterRoute(r *http.Request) string {
	switch {
	case strings.HasSuffix(r.URL.Path, "/pull"):
		return "cluster.pull"
	case strings.HasSuffix(r.URL.Path, "/push"):
		return "cluster.push"
	}
	return ""
}

// starRep runs the parameter-server star in one process, from the
// workers' start until Coordinator.Done() fires on the update budget.
//
// The coordinator's own TargetLoss gate is not what ends the run: on this
// corpus its objective (mean loss plus eta*|w|_1 over 120k coordinates)
// rises from the first push at every step tried, so no constant is ever
// crossed downwards. The target is therefore the same kind as the other
// workloads': hold-out error, scored by bench's evaluator on every version
// the coordinator published, after the run, from the version's own
// publication time and update count.
func starRep(r *run, g *gated, train, hold *dataset.Dataset, seed uint64, rep int) (clusterRep, error) {
	var out clusterRep
	epochs := clusterEpochs
	if r.cfg.quick {
		epochs = 3
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Dim: train.Dim(), StalenessBound: 64, EvalEvery: 2,
		EvalData: hold, Obj: trainObj,
		MaxUpdates: int64(epochs * train.N()), Log: quietLog(),
	})
	if err != nil {
		return out, err
	}
	// Installed before the listener exists, so before any push can publish.
	// The hook runs under the store's writer lock: it only files the version.
	versions := []*snapshot.Version{coord.Store().Load()}
	seqBroken := false
	coord.Store().SetOnPublish(func(v *snapshot.Version) {
		if v.Seq != versions[len(versions)-1].Seq+1 {
			seqBroken = true
		}
		versions = append(versions, v)
	})

	root := r.tr.begin("rep", -1, rep)
	defer r.tr.end(root)
	handler := coord.Handler()
	if r.tr != nil {
		out.meter = newHTTPMeter(r.tr, root)
		handler = out.meter.wrap(handler, clusterRoute)
	}
	srv, err := listen(handler)
	if err != nil {
		return out, err
	}
	defer srv.close()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clusterWorkers}}
	defer client.CloseIdleConnections()
	workers := make([]*cluster.Worker, clusterWorkers)
	for id := range workers {
		workers[id], err = cluster.NewWorker(cluster.WorkerConfig{
			ID: id, Workers: clusterWorkers, Coordinator: srv.url,
			Data: train, Obj: trainObj, Seed: seed,
			Threads: 1, LocalEpochs: 1, Step: trainStep, Wire: cluster.WireF64,
			HTTPClient: client, Log: quietLog(),
		})
		if err != nil {
			return out, err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), clusterPatience)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, clusterWorkers)
	walls := make([]float64, clusterWorkers)
	start := time.Now()
	for id, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := r.tr.begin("cluster.worker", root, rep)
			t0 := time.Now()
			errs[id] = w.Run(ctx)
			walls[id] = since(t0)
			r.tr.end(sp)
		}()
	}
	select {
	case <-coord.Done():
	case <-ctx.Done():
	}
	out.clockS = since(start)
	budgetSpent := coord.Stats().Done
	wg.Wait()
	srv.close() // no handler runs past here, so versions is ours to read

	out.stats = coord.Stats()
	out.updates = float64(out.stats.Updates)
	// A piece of the timeline is two pushes applied, one pass over the
	// train split between the two workers; single pushes land too unevenly
	// to be lined up across reps.
	last := point{}
	for k, v := range versions {
		t := v.At.Sub(start).Seconds()
		if t > out.clockS {
			break
		}
		p := point{T: max(t, 0), Updates: float64(v.Iters), Err: holdoutErr(hold, v.Weights)}
		out.curve = append(out.curve, p)
		if k > 0 && k%clusterWorkers == 0 {
			out.pieceS, out.pieceU = append(out.pieceS, p.T-last.T), append(out.pieceU, p.Updates-last.Updates)
			last = p
		}
	}
	out.weights = versions[len(versions)-1].Weights
	out.finalErr = holdoutErr(hold, out.weights)
	out.finite = model.FirstNonFinite(out.weights) < 0
	pushFailed := 0
	for id, w := range workers {
		ws := w.Stats()
		out.pushesSent += ws.Applied + ws.Shed
		out.workerUpdates += ws.Updates
		out.workerWallS += walls[id]
		if errs[id] != nil {
			out.pushesSent++ // the push or pull that ended the worker
			pushFailed++
			r.reason("worker %d: %v", id, errs[id])
		}
	}

	st := out.stats
	if !budgetSpent {
		out.curve = nil // a star that hung reached nothing
		r.reason("cluster did not spend its %d-update budget within %v", epochs*train.N(), clusterPatience)
	}
	if g != nil {
		g.take(r, out.trainRep, targetCluster)
	} else {
		r.score(out.trainRep, targetCluster)
	}
	r.ops(int(out.pushesSent), int(st.Shed+st.Bad)+pushFailed, "pushes (shed, bad or failed)")
	if seqBroken {
		r.violation("coordinator seq was not strictly monotone")
	}
	if got := st.Applied + st.Shed + st.Bad; pushFailed == 0 && got != out.pushesSent {
		r.violation("coordinator counted %d pushes (applied %d, shed %d, bad %d), workers sent %d",
			got, st.Applied, st.Shed, st.Bad, out.pushesSent)
	}
	return out, nil
}

func runCluster(r *run) error {
	cfg := r.cfg
	fx, err := setUp(r, func() (*corpus, error) { return newCorpus(denseSynth(cfg.quick), cfg.seed) }, func(*corpus) {})
	if err != nil {
		return err
	}
	if !cfg.trace {
		g := gated{steadyFrom: 1} // the first round starts with both workers' first pull
		for d, k := newDeadline(cfg.seconds, 3), 0; d.next(); k++ {
			train, hold := fx.split(k)
			if _, err := starRep(r, &g, train, hold, repSeed(cfg.seed, k), k); err != nil {
				return err
			}
		}
		g.report(r)
		return nil
	}

	tr := newTracer(cfg.workload)
	mem := startMemProbe()
	var tracedClock, plainClock []float64
	var last clusterRep
	var train, hold *dataset.Dataset
	var workerUpdates, workerWall float64
	for d, k := newDeadline(cfg.seconds, 2), 0; d.next(); k++ {
		traced := k%2 == 0
		r.tr = nil
		if traced {
			r.tr = tr
		}
		train, hold = fx.split(k)
		rep, err := starRep(r, nil, train, hold, repSeed(cfg.seed, k), k)
		if err != nil {
			return err
		}
		workerUpdates += float64(rep.workerUpdates)
		workerWall += rep.workerWallS
		st := rep.stats
		r.add("cluster.push_count", float64(st.Applied+st.Shed+st.Bad))
		r.add("cluster.push_shed_share", float64(st.Shed)/float64(max(st.Applied+st.Shed+st.Bad, 1)))
		r.add("cluster.mean_tau", st.MeanTau)
		r.add("snapshot.publishes", float64(st.Seq))
		if !traced {
			plainClock = append(plainClock, rep.clockS)
			continue
		}
		tracedClock = append(tracedClock, rep.clockS)
		last = rep
		pushes, pushS, pushReq, pushResp := rep.meter.stats("cluster.push")
		pulls, pullS, pullReq, pullResp := rep.meter.stats("cluster.pull")
		r.add("cluster.push_req_bytes", pushReq)
		r.add("cluster.pull_resp_bytes", pullResp)
		r.add("cluster.push_handler_ms", pushS*1e3)
		r.add("cluster.pull_handler_ms", pullS*1e3)
		wire := float64(pushes)*(pushReq+pushResp) + float64(pulls)*(pullReq+pullResp)
		r.add("cluster.wire_bytes_per_update", wire/float64(max(st.Updates, 1)))
	}
	r.tr = tr
	mem.report(r)
	r.traceOverhead(tracedClock, plainClock, "median clock of untraced reps")

	// What a worker's round costs without the protocol: the engine a
	// worker builds (racy f64 model, one thread, shuffled shard) on half
	// of the train split, which is what one of two workers holds.
	half := make([]int, train.N()/clusterWorkers)
	for i := range half {
		half[i] = i
	}
	local := train.Reorder(half)
	eng, err := core.NewISASGDOpts(local, trainObj, model.NewRacy(local.Dim()), 1,
		core.ISOptions{Mode: balance.ForceShuffle, Seed: cfg.seed})
	if err != nil {
		return fmt.Errorf("worker-sized engine: %w", err)
	}
	for e := 0; e < 5; e++ {
		t0 := time.Now()
		n := eng.RunEpoch(trainStep)
		r.add("core.epoch_ns_per_update_t1", float64(time.Since(t0))/float64(n))
	}
	t1Ns := r.med("core.epoch_ns_per_update_t1")
	comm := 1 - workerUpdates*t1Ns/1e9/workerWall
	r.set("cluster.comm_share", comm, len(tracedClock)+len(plainClock),
		"workers' wall; compute is their updates times core.epoch_ns_per_update_t1")

	replayKernels(r, train, model.KindRacy, last.weights)
	replaySampling(r, train)
	replaySnapshot(r, train.Dim(), copyFill(last.weights))
	r.res.Shares = map[string]float64{
		"core (worker compute)":            1 - comm,
		"cluster+wire (rest of the round)": comm,
		"kernel (of worker compute)":       r.med("kernel.step_ns") / t1Ns,
	}
	r.note("layer_shares are of the workers' wall (%.2f s over %d reps); workers and coordinator share %d cores, so no scaling is reported",
		workerWall, len(tracedClock)+len(plainClock), cfg.nproc)
	return nil
}
