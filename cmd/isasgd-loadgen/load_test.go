package main

import (
	"context"
	"testing"
	"time"
)

// TestRunLoadClosedSmoke drives a short closed-loop run against a real
// in-process serving node and checks the accounting adds up.
func TestRunLoadClosedSmoke(t *testing.T) {
	rep, err := RunLoad(context.Background(), LoadSpec{
		Targets: []string{startTarget(t)}, Models: []string{"a", "b"},
		Mode: "closed", Concurrency: 4,
		Duration: 300 * time.Millisecond, Warmup: 50 * time.Millisecond,
		Dim: 4, NNZ: 2, Seed: 1, SLOP99: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.OK == 0 {
		t.Fatalf("no traffic flowed: %+v", rep)
	}
	if rep.Errors != 0 || rep.Shed != 0 {
		t.Fatalf("healthy server produced errors/sheds: %+v", rep)
	}
	if rep.QPS <= 0 || rep.P99Ms <= 0 {
		t.Fatalf("missing latency/throughput numbers: %+v", rep)
	}
	if !rep.MetSLO {
		t.Fatalf("5s SLO missed on a loopback smoke run: p99 %.2fms", rep.P99Ms)
	}
}

// TestRunLoadOpenSmoke checks the open-loop pacer: the offered rate is
// honored approximately and bookkeeping (sent + lost ~ offered) holds.
func TestRunLoadOpenSmoke(t *testing.T) {
	rep, err := RunLoad(context.Background(), LoadSpec{
		Targets: []string{startTarget(t)}, Models: []string{"a"},
		Mode: "open", Concurrency: 8, Rate: 200,
		Duration: 400 * time.Millisecond, Warmup: 50 * time.Millisecond,
		Dim: 4, NNZ: 2, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OfferedQPS != 200 {
		t.Fatalf("OfferedQPS = %v, want 200", rep.OfferedQPS)
	}
	if rep.Sent == 0 || rep.OK == 0 {
		t.Fatalf("no traffic flowed: %+v", rep)
	}
	// The pacer can only emit Duration*Rate tokens; sent+lost never
	// exceeds that (plus one tick of slack).
	if max := int64(0.4*200) + 2; rep.Sent+rep.Lost > max {
		t.Fatalf("sent %d + lost %d exceeds the offered token budget %d", rep.Sent, rep.Lost, max)
	}
}

// TestRunLoadValidation covers the argument contract.
func TestRunLoadValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := RunLoad(ctx, LoadSpec{Models: []string{"m"}}); err == nil {
		t.Error("missing targets accepted")
	}
	if _, err := RunLoad(ctx, LoadSpec{Targets: []string{"http://x"}}); err == nil {
		t.Error("missing models accepted")
	}
	if _, err := RunLoad(ctx, LoadSpec{Targets: []string{"http://x"}, Models: []string{"m"}, Mode: "sideways"}); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := RunLoad(ctx, LoadSpec{Targets: []string{"http://x"}, Models: []string{"m"}, Mode: "open"}); err == nil {
		t.Error("open mode without rate accepted")
	}
}
