package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/isasgd/isasgd/internal/metrics"
	"github.com/isasgd/isasgd/internal/solver"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got against testdata/<name>.golden, rewriting
// the file under -update. Any drift in the reproduction's numbers, or
// in CSV column order, headers or number formatting, fails here, so
// neither can change silently.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run `go test -run Golden -update ./internal/experiments/` after intentional changes): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestReportGolden runs every experiment at the tiny scale and pins the
// whole report. Training runs on the delayed executor and evaluation on
// a fixed worker count, so the bytes are the same at any GOMAXPROCS
// (CI runs this with -cpu 1,4).
func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	all := map[string]bool{}
	for _, name := range Names {
		all[name] = true
	}
	if _, err := tiny(&buf).Run(context.Background(), all); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report", buf.Bytes())
}

func TestGoldenCurvesCSV(t *testing.T) {
	curves := map[RunKey]metrics.Curve{
		{Algo: solver.ASGD, Threads: 8}: {
			{Epoch: 0, Iters: 0, Obj: 0.693147, RMSE: 0.693147, ErrRate: 0.5, BestErr: 0.5},
			{Epoch: 1, Iters: 1000, Obj: 0.41, RMSE: 0.45, ErrRate: 0.12, BestErr: 0.12},
		},
		{Algo: solver.ISASGD, Threads: 8}: {
			{Epoch: 0, Iters: 0, Obj: 0.693147, RMSE: 0.693147, ErrRate: 0.5, BestErr: 0.5},
			{Epoch: 1, Iters: 1000, Obj: 0.35, RMSE: 0.40, ErrRate: 0.09, BestErr: 0.09},
		},
	}
	var buf bytes.Buffer
	if err := WriteCurvesCSV(&buf, "news20s", curves); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "curves", buf.Bytes())
}
