package main

import (
	"math"
	"testing"
	"time"
)

// One connection, 100 requests per second, and request 5 stalls for 60 ms:
// the requests that came due behind the stall must be charged the wait
// (latency from due time far above their own service time) and counted
// late, which a generator timing from the send would hide.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	res := openLoop(1, 100, 300*time.Millisecond, func(_, i int) bool {
		if i == 5 {
			time.Sleep(stall)
		}
		return true
	})
	if res.sent != 30 || res.failed != 0 || len(res.lat) != 30 {
		t.Fatalf("sent %d failed %d samples %d, want 30 0 30", res.sent, res.failed, len(res.lat))
	}
	// Requests 6..10 came due during the stall: at least four waited more
	// than 10 ms although their service took microseconds.
	waited := 0
	for _, l := range res.lat {
		if l > 0.010 {
			waited++
		}
	}
	if waited < 5 { // the stalled request itself and four behind it
		t.Errorf("%d requests show the stall in their latency, want at least 5: %v", waited, res.lat)
	}
	if res.late < 4 {
		t.Errorf("late = %d, want at least the 4 sends that started over 1 ms past due", res.late)
	}
	if res.lateShare() <= 0 || res.lateShare() >= 0.5 {
		t.Errorf("late share = %g, want a minority", res.lateShare())
	}
	if res.within(0.005) > 0.9 {
		t.Errorf("%.0f%% within 5 ms; the stall should push more than 10%% of requests over", 100*res.within(0.005))
	}
}

func TestOpenLoopFailedRequestMissesEveryLimit(t *testing.T) {
	res := openLoop(1, 200, 100*time.Millisecond, func(_, i int) bool { return i != 3 })
	if res.failed != 1 || !math.IsInf(res.lat[len(res.lat)-1], 1) {
		t.Errorf("failed = %d, slowest = %g; want 1 and +Inf", res.failed, res.lat[len(res.lat)-1])
	}
	if got, want := res.within(10), float64(res.sent-1)/float64(res.sent); got != want {
		t.Errorf("within(10 s) = %g, want %g: a failed request is over any limit", got, want)
	}
}

func TestClosedLoopCountsGoodResponsesPerWindow(t *testing.T) {
	res := closedLoop(2, 100*time.Millisecond, 4, func(_, i int) bool {
		time.Sleep(time.Millisecond)
		return i%10 != 0
	})
	good := 0
	for _, n := range res.perWindow {
		good += n
	}
	if res.sent == 0 || good > res.sent-res.failed || res.failed == 0 {
		t.Errorf("sent %d failed %d good %d", res.sent, res.failed, good)
	}
}

func TestGeneratorWiderThanTheCoresIsRefused(t *testing.T) {
	if err := checkConns(2, 2); err != nil {
		t.Errorf("2 connections on 2 cores refused: %v", err)
	}
	if err := checkConns(3, 2); err == nil {
		t.Error("3 connections on 2 cores accepted")
	}
}
