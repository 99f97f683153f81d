package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/checkpoint"
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

// TestBalanceFlagRefused checks that -balance is gone from both roles:
// it fails as an unknown flag, whatever mode it names.
func TestBalanceFlagRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-role", "coordinator", "-balance", "auto"},
		{"-role", "worker", "-coordinator", "http://x", "-id", "0", "-workers", "1", "-balance", "balance"},
	} {
		var out syncBuf
		err := run(context.Background(), args, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -balance") {
			t.Fatalf("args %v: err %v, want an unknown-flag error", args, err)
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

// TestCoordinatorState runs a coordinator with -state and one worker to
// -max-updates: it saves the state file at shutdown, and a second
// coordinator over the same file restores at that seq and update count
// and, with no push in between, saves the same bytes back.
func TestCoordinatorState(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	path := filepath.Join(t.TempDir(), "coord.ckpt")
	coord := func(ctx context.Context, out *syncBuf, extra ...string) chan error {
		errc := make(chan error, 1)
		go func() {
			errc <- run(ctx, append([]string{"-role", "coordinator", "-addr", "127.0.0.1:0",
				"-dataset", "small", "-seed", "7", "-state", path, "-log-level", "error"}, extra...), out)
		}()
		return errc
	}

	var out1 syncBuf
	errc := coord(ctx, &out1, "-max-updates", "1000", "-exit-on-done")
	url := listening(t, &out1)
	var wout syncBuf
	if err := run(ctx, []string{"-role", "worker", "-coordinator", url, "-id", "0", "-workers", "1",
		"-dataset", "small", "-seed", "7", "-log-level", "error"}, &wout); err != nil {
		t.Fatalf("worker: %v\n%s", err, wout.String())
	}
	if err := <-errc; err != nil {
		t.Fatalf("coordinator: %v\n%s", err, out1.String())
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := checkpoint.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Seq < 2 || ck.Iters < 1000 || ck.Epoch < 1 {
		t.Fatalf("saved seq %d, %d pushes, %d updates: want a run past -max-updates", ck.Seq, ck.Epoch, ck.Iters)
	}
	if want := fmt.Sprintf("state saved to %s at seq %d\n", path, ck.Seq); !strings.Contains(out1.String(), want) {
		t.Fatalf("first run did not print %q:\n%s", want, out1.String())
	}

	ctx2, stop := context.WithCancel(ctx)
	var out2 syncBuf
	errc = coord(ctx2, &out2)
	listening(t, &out2)
	stop()
	if err := <-errc; err != nil {
		t.Fatalf("restarted coordinator: %v\n%s", err, out2.String())
	}
	if want := fmt.Sprintf("restored state from %s at seq %d (%d updates)\n", path, ck.Seq, ck.Iters); !strings.Contains(out2.String(), want) {
		t.Fatalf("second run did not print %q:\n%s", want, out2.String())
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, saved) {
		t.Fatalf("restored and saved again without a push: %d bytes (err %v), want the same %d bytes",
			len(again), err, len(saved))
	}
}

// listening waits for a coordinator's announcement and returns its URL.
func listening(t *testing.T, out *syncBuf) string {
	t.Helper()
	addrRe := regexp.MustCompile(`listening on (http://[0-9.]+:\d+)`)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
	}
	t.Fatalf("coordinator never announced its address:\n%s", out.String())
	return ""
}
