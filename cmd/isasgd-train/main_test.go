package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/isasgd/isasgd"
	"github.com/isasgd/isasgd/internal/xrand"
)

func writeStreamCorpus(t *testing.T, n, dim int) string {
	t.Helper()
	rng := xrand.New(11)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		j := rng.Intn(dim)
		v := rng.NormFloat64()
		y := 1
		if v < 0 {
			y = -1
		}
		fmt.Fprintf(&sb, "%d %d:%.6f\n", y, j+1, v)
	}
	path := filepath.Join(t.TempDir(), "corpus.libsvm")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

type runCase struct {
	name string
	args []string
	ok   bool
}

// checkRuns drives run with each argument list as a subtest. Every
// rejected row must fail before training starts: nothing is printed.
func checkRuns(t *testing.T, cases []runCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), tc.args, &out)
			switch {
			case tc.ok && err != nil:
				t.Errorf("%v", err)
			case !tc.ok && err == nil:
				t.Errorf("accepted")
			case !tc.ok && out.Len() > 0:
				t.Errorf("failed after training started: %v\n%s", err, out.String())
			}
		})
	}
}

func with(base []string, extra ...string) []string {
	return append(append([]string(nil), base...), extra...)
}

func TestRunStream(t *testing.T) {
	corpus := writeStreamCorpus(t, 256, 8)
	modelOut := filepath.Join(t.TempDir(), "model.libsvm")
	checkRuns(t, []runCase{{"stream", []string{"-stream", "-data", corpus, "-algo", "is-asgd",
		"-objective", "logistic-l1", "-eta", "1e-4", "-step", "0.5",
		"-step-decay", "1", "-threads", "2", "-seed", "1", "-dim", "8", "-block-size", "64",
		"-window-blocks", "2", "-model", modelOut}, true}})
	got, err := os.ReadFile(modelOut)
	if err != nil {
		t.Fatalf("model output missing: %v", err)
	}
	if !strings.HasPrefix(string(got), "0") {
		t.Fatalf("model output malformed: %q", got)
	}
}

func TestRunStreamValidation(t *testing.T) {
	tiny := writeStreamCorpus(t, 8, 4)
	tinyStream := []string{"-stream", "-data", tiny, "-dim", "4"}
	checkRuns(t, []runCase{
		{"missing dim", []string{"-stream", "-data", tiny}, false},
		{"bad algo", with(tinyStream, "-algo", "svrg-asgd"), false},
		{"bad objective", with(tinyStream, "-objective", "bogus"), false},
		{"bad balance", with(tinyStream, "-balance", "bogus"), false},
		{"bad path", []string{"-stream", "-data", "/no/such/file", "-dim", "4"}, false},
		{"NaN step", with(tinyStream, "-step", "NaN"), false},
		{"+Inf step", with(tinyStream, "-step", "+Inf"), false},
		{"NaN step-decay", with(tinyStream, "-step-decay", "NaN"), false},
		{"epochs", with(tinyStream, "-epochs", "3"), false},
		{"dc-lambda", with(tinyStream, "-dc-lambda", "0.1"), false},
	})
}

// TestParseBalance checks that -balance is gone: every mode name it
// took, and any other value, fails as an unknown flag before training.
// No run has a shard-plan knob.
func TestParseBalance(t *testing.T) {
	batch := []string{"-data", writeStreamCorpus(t, 8, 4), "-epochs", "1"}
	for _, mode := range []string{"auto", "", "balance", "shuffle", "sorted", "lpt", "bogus"} {
		t.Run("balance "+mode, func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), with(batch, "-balance", mode), &out)
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -balance") {
				t.Fatalf("-balance %q: err %v, want an unknown-flag error", mode, err)
			}
			if out.Len() > 0 {
				t.Fatalf("-balance %q: printed before failing:\n%s", mode, out.String())
			}
		})
	}
}

// TestRun checks that batch-mode knobs are validated before training.
func TestRun(t *testing.T) {
	batch := []string{"-data", writeStreamCorpus(t, 8, 4), "-epochs", "1"}
	checkRuns(t, []runCase{
		{"batch importance", with(batch, "-importance", "grad"), false},
		{"batch dim", with(batch, "-dim", "4"), false},
		{"batch NaN eta", with(batch, "-eta", "NaN"), false},
		{"batch NaN step", with(batch, "-step", "NaN"), false},
		{"batch NaN step-decay", with(batch, "-step-decay", "NaN"), false},
		{"batch f32 saga", with(batch, "-algo", "saga", "-precision", "f32"), false},
		{"batch minibatch", with(batch, "-batch", "8"), false},
		{"missing data", []string{"-epochs", "1"}, false},
	})
}

// TestRunHoldout checks the held-out line reports the objective split
// into the data loss and the regularizer.
func TestRunHoldout(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-data", writeStreamCorpus(t, 200, 8), "-epochs", "2", "-holdout", "0.25"}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	var n int
	var obj, loss, reg, rmse, errRate float64
	line := out.String()[strings.Index(out.String(), "held-out"):]
	if _, err := fmt.Sscanf(line, "held-out (%d samples): obj=%g loss=%g reg=%g rmse=%g err=%g",
		&n, &obj, &loss, &reg, &rmse, &errRate); err != nil {
		t.Fatalf("held-out line %q: %v", line, err)
	}
	// The line prints obj, loss and reg with %.6f, so each printed value
	// is within half a unit of the sixth decimal, 0.5e-6, of its exact
	// value, and obj = loss + reg exactly before rounding. The three
	// roundings can add up to 3 × 0.5e-6 = 1.5e-6; 1e-9 more covers the
	// float arithmetic of the subtraction itself.
	const printed = 3*0.5e-6 + 1e-9
	if d := obj - (loss + reg); d > printed || d < -printed || reg <= 0 {
		t.Fatalf("obj %g != loss %g + reg %g", obj, loss, reg)
	}
}

// TestSaveCheckpointResume writes a checkpoint at each precision and
// resumes from it. The checkpoint holds the bits of the weights -model
// writes (%g prints the shortest form that parses back exactly), an f32
// run's at 4 bytes each; -resume prints the saved epoch and updates and
// refuses a corpus of another dimension.
func TestSaveCheckpointResume(t *testing.T) {
	corpus := writeStreamCorpus(t, 200, 8)
	for _, prec := range []string{"f64", "f32"} {
		t.Run(prec, func(t *testing.T) {
			dir := t.TempDir()
			ckPath, modelPath := filepath.Join(dir, "run.ckpt"), filepath.Join(dir, "model.libsvm")
			var out bytes.Buffer
			if err := run(context.Background(), []string{"-data", corpus, "-epochs", "3", "-precision", prec,
				"-save-checkpoint", ckPath, "-model", modelPath}, &out); err != nil {
				t.Fatal(err)
			}
			ck, err := isasgd.LoadCheckpoint(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			if ck.DType != prec || ck.Epoch != 3 || ck.Iters <= 0 {
				t.Fatalf("checkpoint dtype %q epoch %d iters %d, want %s, 3 and some updates", ck.DType, ck.Epoch, ck.Iters, prec)
			}
			line, err := os.ReadFile(modelPath)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, len(ck.Weights))
			for _, f := range strings.Fields(string(line))[1:] {
				j, v, _ := strings.Cut(f, ":")
				i, _ := strconv.Atoi(j)
				if want[i-1], err = strconv.ParseFloat(v, 64); err != nil {
					t.Fatal(err)
				}
			}
			for i := range want {
				if math.Float64bits(ck.Weights[i]) != math.Float64bits(want[i]) {
					t.Fatalf("checkpoint weight %d = %x, model file %x", i, math.Float64bits(ck.Weights[i]), math.Float64bits(want[i]))
				}
			}

			out.Reset()
			if err := run(context.Background(), []string{"-data", corpus, "-epochs", "1", "-precision", prec,
				"-resume", ckPath}, &out); err != nil {
				t.Fatal(err)
			}
			if msg := fmt.Sprintf("resumed from %s (epoch 3, %d updates)", ckPath, ck.Iters); !strings.Contains(out.String(), msg) {
				t.Fatalf("resume did not print %q:\n%s", msg, out.String())
			}
			err = run(context.Background(), []string{"-data", writeStreamCorpus(t, 20, 3), "-epochs", "1",
				"-resume", ckPath}, io.Discard)
			if want := fmt.Sprintf("checkpoint dim %d != dataset dim 3", len(ck.Weights)); err == nil || err.Error() != want {
				t.Fatalf("resume on a 3-coordinate corpus: %v, want %q", err, want)
			}
		})
	}
}
