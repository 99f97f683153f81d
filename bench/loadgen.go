package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sendFunc issues request i on connection conn and reports whether it
// came back 2xx and, where checked, correct.
type sendFunc func(conn, i int) bool

// lateAfter is how far past its due time a send may start before the
// generator, not the system, is what the latency measured.
const lateAfter = time.Millisecond

// loadResult is one phase of load.
type loadResult struct {
	sent, failed int
	lat          []float64 // seconds, sorted; +Inf for a failed or never-sent request
	late         int       // open loop: sends that started more than lateAfter past due
	perWindow    []int     // closed loop: good responses per window
	windowS      float64
	backlogMid   int // open loop: requests due but unfinished at the phase's midpoint
	backlogEnd   int //   ... and at its end
}

// checkConns refuses a generator wider than the cores it is allowed: more
// connections than that measure the scheduler, not the server.
func checkConns(conns, nproc int) error {
	if conns > nproc {
		return fmt.Errorf("load generator wants %d connections on %d usable cores", conns, nproc)
	}
	return nil
}

// closedLoop keeps conns requests in flight for dur: each connection
// sends its next request when the previous one returns, so a slower
// server is offered less. Latency is timed from the send.
func closedLoop(conns int, dur time.Duration, windows int, send sendFunc) loadResult {
	var (
		res   = loadResult{perWindow: make([]int, windows), windowS: dur.Seconds() / float64(windows)}
		mu    sync.Mutex
		next  atomic.Int64
		wg    sync.WaitGroup
		start = time.Now()
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			good := make([]int, windows)
			sent, failed := 0, 0
			for {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					break
				}
				ok := send(c, int(next.Add(1)-1))
				done := time.Now()
				sent++
				if !ok {
					failed++
					lat = append(lat, math.Inf(1))
					continue
				}
				lat = append(lat, done.Sub(t0).Seconds())
				if w := int(done.Sub(start).Seconds() / res.windowS); w < windows {
					good[w]++
				}
			}
			mu.Lock()
			res.sent += sent
			res.failed += failed
			res.lat = append(res.lat, lat...)
			for w, n := range good {
				res.perWindow[w] += n
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Float64s(res.lat)
	return res
}

// openLoop offers rate requests per second for dur whatever the server
// does: request i is due at start + i/rate and its latency is timed from
// then, so a stall is charged to every request that had to wait behind
// it, not only to the one that hit it. The conns senders take requests in
// due order; a send that starts more than lateAfter past due is counted
// late. Requests still unsent a second after the phase ends are given up
// and recorded as missing every limit.
func openLoop(conns int, rate float64, dur time.Duration, send sendFunc) loadResult {
	var (
		res      loadResult
		mu       sync.Mutex
		next     atomic.Int64
		finished atomic.Int64
		wg       sync.WaitGroup
		total    = int(rate * dur.Seconds())
		gap      = time.Duration(float64(time.Second) / rate)
		start    = time.Now()
		giveUp   = start.Add(dur + time.Second)
	)
	backlogAt := func(at time.Duration) int {
		time.Sleep(time.Until(start.Add(at)))
		due := min(int(at/gap)+1, total)
		return due - int(finished.Load())
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		mid, end := backlogAt(dur/2), backlogAt(dur)
		mu.Lock()
		res.backlogMid, res.backlogEnd = mid, end
		mu.Unlock()
	}()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			sent, failed, late := 0, 0, 0
			alarm, err := newPacer()
			if err != nil {
				panic(err) // a process that cannot open one more descriptor cannot open connections either
			}
			defer alarm.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					break
				}
				due := start.Add(time.Duration(i) * gap)
				alarm.sleepUntil(due)
				begun := time.Now()
				if begun.After(giveUp) {
					lat = append(lat, math.Inf(1))
					continue
				}
				if begun.Sub(due) > lateAfter {
					late++
				}
				ok := send(c, i)
				finished.Add(1)
				sent++
				if ok {
					lat = append(lat, time.Since(due).Seconds())
				} else {
					failed++
					lat = append(lat, math.Inf(1))
				}
			}
			mu.Lock()
			res.sent += sent
			res.failed += failed
			res.late += late
			res.lat = append(res.lat, lat...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Float64s(res.lat)
	return res
}

// within is the share of the phase's requests that finished inside limit.
func (l loadResult) within(limit float64) float64 {
	if len(l.lat) == 0 {
		return 0
	}
	return float64(sort.SearchFloat64s(l.lat, math.Nextafter(limit, math.Inf(1)))) / float64(len(l.lat))
}

func (l loadResult) lateShare() float64 {
	if l.sent == 0 {
		return 0
	}
	return float64(l.late) / float64(l.sent)
}
