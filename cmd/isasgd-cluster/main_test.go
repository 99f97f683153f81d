package main

import (
	"context"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuf is an io.Writer safe for the coordinator goroutine and the
// test's polling reads.
type syncBuf struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func TestVersionFlag(t *testing.T) {
	var out syncBuf
	if err := run(context.Background(), []string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "isasgd-cluster ") {
		t.Fatalf("version output: %q", out.String())
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-role", "nope"},
		{"-role", "worker"}, // no -coordinator
		{"-role", "worker", "-coordinator", "http://x", "-id", "0"}, // no -workers
		{"-role", "coordinator", "-dataset", "bogus"},
		{"-role", "coordinator", "-objective", "bogus"},
	} {
		var out syncBuf
		if err := run(context.Background(), args, &out); err == nil {
			t.Fatalf("args %v: expected an error", args)
		}
	}
}

// TestClusterEndToEnd runs the full binary lifecycle in-process: a
// coordinator on an ephemeral port plus two workers, gated on actual
// convergence, coordinator exiting on done.
func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full convergence run")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	var cout syncBuf
	coordErr := make(chan error, 1)
	go func() {
		coordErr <- run(ctx, []string{
			"-role", "coordinator", "-addr", "127.0.0.1:0",
			"-dataset", "small", "-seed", "7",
			"-target-loss", "0.45", "-max-updates", "4000000",
			"-staleness-bound", "64", "-eval-every", "2",
			"-exit-on-done", "-log-level", "error",
		}, &cout)
	}()

	// The coordinator prints its bound address once listening.
	addrRe := regexp.MustCompile(`listening on (http://[0-9.]+:\d+)`)
	var url string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if m := addrRe.FindStringSubmatch(cout.String()); m != nil {
			url = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if url == "" {
		t.Fatalf("coordinator never announced its address:\n%s", cout.String())
	}

	// A mixed-wire cluster: worker 0 speaks the default f64 encoding,
	// worker 1 the f32 one, against the same coordinator.
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	wouts := make([]syncBuf, 2)
	for i, wire := range []string{"f64", "f32"} {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = run(ctx, []string{
				"-role", "worker", "-coordinator", url,
				"-id", itoa(i), "-workers", "2",
				"-dataset", "small", "-seed", "7",
				"-step", "0.5", "-wire", wire, "-log-level", "error",
			}, &wouts[i])
		}(i)
	}
	wg.Wait()
	appliedRe := regexp.MustCompile(`applied=[1-9]`)
	for i, err := range werrs {
		if err != nil {
			t.Fatalf("worker %d: %v\n%s", i, err, wouts[i].String())
		}
		if !appliedRe.MatchString(wouts[i].String()) {
			t.Fatalf("worker %d had no push applied:\n%s", i, wouts[i].String())
		}
	}
	if err := <-coordErr; err != nil {
		t.Fatalf("coordinator: %v\n%s", err, cout.String())
	}
	if !strings.Contains(cout.String(), "reached=true") {
		t.Fatalf("run did not report convergence:\n%s", cout.String())
	}
}

func itoa(i int) string { return string(rune('0' + i)) }
