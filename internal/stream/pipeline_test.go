package stream

import (
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/isasgd/isasgd/internal/model"
	"github.com/isasgd/isasgd/internal/snapshot"
)

// handDriven is the loop Run replaced: read a block, ingest it, repeat.
// It returns the blocks ingested and the error that ended the stream
// (nil on EOF), and is what the pipelined Run must be indistinguishable
// from.
func handDriven(tr *Trainer, r *Reader) (blocks int, err error) {
	for {
		b, err := r.Next()
		if err == io.EOF {
			return blocks, nil
		}
		if err != nil {
			return blocks, err
		}
		tr.Ingest(b)
		blocks++
	}
}

// waitGoroutines waits for the goroutine count to come back down to
// want: Run has already joined its reader when it returns, but the
// runtime retires an exited goroutine a moment after its last statement.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, started with %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// failAfter yields the first n bytes of s and then err.
func failAfter(s string, n int, err error) io.Reader {
	return io.MultiReader(strings.NewReader(s[:n]), iotest.ErrReader(err))
}

// TestRunPipelineLifecycle drives Run through every way a stream ends
// and checks it against the sequential loop on a second trainer with
// the same seed: the same blocks trained, the same error text, no
// goroutine left behind, and a Reader that is safe to touch afterwards.
func TestRunPipelineLifecycle(t *testing.T) {
	const blockSize = 64
	corpus := makeSkewedCorpus(8*blockSize, 32, 0.5, 3, 3)
	lines := strings.SplitAfter(corpus, "\n")
	badLine := 5*blockSize + 7 // in block 5: blocks 0–4 must still be trained
	broken := strings.Join(lines[:badLine], "") + "1 3:1 2:1\n" + strings.Join(lines[badLine:], "")
	readErr := errors.New("disk on fire")
	cut := len(strings.Join(lines[:3*blockSize+5], "")) // five rows into block 3

	cases := []struct {
		name       string
		src        func() io.Reader
		cancelAt   int64 // cancel ctx from inside OnBlock of this block; -1 never
		wantBlocks int64
		wantErr    string // substring; "" for a clean run
	}{
		{"clean EOF", func() io.Reader { return strings.NewReader(corpus) }, -1, 8, ""},
		{"parse error in block 5", func() io.Reader { return strings.NewReader(broken) }, -1, 5, "indices not strictly increasing"},
		{"read error mid-stream", func() io.Reader { return failAfter(corpus, cut, readErr) }, -1, 3, "disk on fire"},
		{"cancelled inside OnBlock", func() io.Reader { return strings.NewReader(corpus) }, 2, 3, "training cancelled at block 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			cfg := streamConfig(32, false)
			cfg.Snapshots = snapshot.NewStore()
			var published []uint64 // store seq seen from each OnBlock
			cfg.OnBlock = func(bs BlockStats) {
				published = append(published, cfg.Snapshots.Seq())
				if bs.Block == tc.cancelAt {
					cancel()
				}
			}
			tr, err := NewTrainer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rd := NewReader(tc.src(), "life", blockSize)
			res, err := tr.Run(ctx, rd)
			waitGoroutines(t, before)

			if res == nil || res.Blocks != tc.wantBlocks {
				t.Fatalf("trained %+v blocks, want %d (err %v)", res, tc.wantBlocks, err)
			}
			for k, seq := range published {
				if seq != uint64(k+1) {
					t.Fatalf("OnBlock %d saw store seq %d: version not published before the callback", k, seq)
				}
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Run: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("Run error %v, want one containing %q", err, tc.wantErr)
			}
			// The reader is Run's no longer: its counters are plain fields.
			if rows := rd.Rows(); rows < res.Rows || rows > res.Rows+(readAhead+1)*blockSize {
				t.Fatalf("Reader.Rows() = %d after Run trained %d rows", rows, res.Rows)
			}
			if tc.cancelAt >= 0 {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled Run returned %v", err)
				}
				return // the sequential loop has no ctx to compare against
			}

			// Same stream through the loop Run replaced.
			cfg.OnBlock, cfg.Snapshots = nil, nil
			ref, err2 := NewTrainer(cfg)
			if err2 != nil {
				t.Fatal(err2)
			}
			refBlocks, refErr := handDriven(ref, NewReader(tc.src(), "life", blockSize))
			if int64(refBlocks) != res.Blocks {
				t.Fatalf("Run trained %d blocks, the sequential loop %d", res.Blocks, refBlocks)
			}
			if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
				t.Fatalf("Run error %q, the sequential loop's %q", err, refErr)
			}
			if tc.name == "read error mid-stream" && !errors.Is(err, readErr) {
				t.Fatalf("read error lost its cause: %v", err)
			}
		})
	}
}

// TestRunMatchesHandDrivenLoopBitwise: with one worker the update order
// is fixed by the seed, so overlapping the parse must leave every weight
// bit where the take-turns loop leaves it.
func TestRunMatchesHandDrivenLoopBitwise(t *testing.T) {
	corpus := makeSkewedCorpus(1500, 48, 0.6, 9, 9)
	for _, precision := range []string{model.PrecisionF64, model.PrecisionF32} {
		cfg := streamConfig(48, false)
		cfg.Workers = 1
		cfg.Precision = precision
		cfg.Snapshots = snapshot.NewStore() // publishing must not perturb training either

		piped, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := piped.Run(context.Background(), NewReader(strings.NewReader(corpus), "bits", 100))
		if err != nil {
			t.Fatal(err)
		}

		cfg.Snapshots = nil
		byHand, err := NewTrainer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := handDriven(byHand, NewReader(strings.NewReader(corpus), "bits", 100)); err != nil {
			t.Fatal(err)
		}
		want := byHand.Snapshot(nil)
		if res.Updates != byHand.Updates() || res.Rows != 1500 {
			t.Fatalf("%s: Run applied %d updates over %d rows, by hand %d", precision, res.Updates, res.Rows, byHand.Updates())
		}
		for j := range want {
			if math.Float64bits(res.Weights[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: weight %d = %x from Run, %x by hand", precision, j, math.Float64bits(res.Weights[j]), math.Float64bits(want[j]))
			}
		}
	}
}

// TestWindowEvictionReleasesBlocks: the window's backing array must not
// keep evicted blocks reachable, or resident memory is bounded by the
// array's capacity instead of WindowBlocks.
func TestWindowEvictionReleasesBlocks(t *testing.T) {
	cfg := streamConfig(32, false)
	cfg.WindowBlocks = 3
	tr, err := NewTrainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(strings.NewReader(makeSkewedCorpus(20*32, 32, 0.5, 5, 5)), "evict", 32)
	if _, err := handDriven(tr, r); err != nil {
		t.Fatal(err)
	}
	if len(tr.window) != 3 || cap(tr.window) != 4 {
		t.Fatalf("window len %d cap %d after 20 blocks, want 3 and 4", len(tr.window), cap(tr.window))
	}
	for i, b := range tr.window[:cap(tr.window)] {
		switch {
		case i < 3 && (b == nil || b.Start != int64((17+i)*32)):
			t.Fatalf("window slot %d holds %+v, want the block starting at row %d", i, b, (17+i)*32)
		case i >= 3 && b != nil:
			t.Fatalf("vacated window slot %d still references the block starting at row %d", i, b.Start)
		}
	}
	for ref := int64(0); ref < 20*32; ref++ {
		b, k := tr.locate(ref)
		if live := ref >= 17*32; live != (b != nil) || live && (b.Start+int64(k) != ref) {
			t.Fatalf("locate(%d) = (%v, %d)", ref, b, k)
		}
	}
	if b, _ := tr.locate(20 * 32); b != nil {
		t.Fatal("locate resolved a row past the newest block")
	}
}

// TestReaderBlockAllocations guards the parser's arenas: a block of 1024
// rows costs a fixed handful of allocations, not several per row.
func TestReaderBlockAllocations(t *testing.T) {
	corpus := makeSkewedCorpus(8*1024, 128, 0.5, 1, 1)
	r := NewReader(strings.NewReader(corpus), "allocs", 1024)
	if _, err := r.Next(); err != nil { // first block: scanner buffer, scratch, arena hint
		t.Fatal(err)
	}
	perBlock := testing.AllocsPerRun(6, func() {
		if b, err := r.Next(); err != nil || b.Len() != 1024 {
			t.Fatalf("Next: %v", err)
		}
	})
	// The block, its rows, its labels and the two arenas — plus slack for
	// an arena that outgrows its hint.
	if perBlock > 12 {
		t.Fatalf("a 1024-row block costs %.0f allocations, want O(1)", perBlock)
	}
}
