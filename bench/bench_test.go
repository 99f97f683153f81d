package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, the contract names exactly 6", len(keys))
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json and the tables in metrics.go and main.go say the same
// thing, within the limits the driver's contract sets.
func TestBenchmarkFileAgreesWithTheProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || !unit.MatchString(u) || (better != "lower" && better != "higher") {
			t.Errorf("metric %q unit %q better %q is outside the contract", n, u, better)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
		check(w.Name, "x", "lower")
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, m, d)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v is not in (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		check(m.Name, m.Unit, m.Better)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, m, d)
		}
		check(m.Name, m.Unit, m.Better)
	}
	if bf.RunSeconds < 10 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d: under 10 the program refuses to measure, over 60 the driver does", bf.RunSeconds)
	}
	// 4 + 22 runs per workload, each with its set-up, inside 3420 s.
	if runs := 4 + 22*len(bf.Workloads); float64(runs)*(float64(bf.RunSeconds)+10) > 3420-120 {
		t.Errorf("%d runs of %d s plus about 10 s of set-up each do not fit in the driver's 3420 s", runs, bf.RunSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" || strings.Join(bf.Command, " ") != "bash bench/run.sh" {
		t.Errorf("paths %v command %v", bf.Paths, bf.Command)
	}
}

func quickConfig(workload string, traced bool) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: traced, quick: true, nproc: min(runtime.GOMAXPROCS(0), 4)}
}

// Every workload, both passes, tiny inputs: every metric BENCHMARK.json
// lists for the pass is emitted exactly once, nothing else is, the checks
// pass, and the result line has the contract's shape.
func TestQuickSmokeEmitsEveryMetricOnce(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(quickConfig(wl.Name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", wl.Name, traced, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			line, err := json.Marshal(res.contract())
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil || got.Correct == nil || got.Attempted == nil || got.Failed == nil {
				t.Fatalf("%s traced=%v: result line %s: %v", wl.Name, traced, line, err)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d listed", wl.Name, traced, len(got.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := got.Metrics[name]
				if !ok || m.Value == nil || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", wl.Name, traced, name, m.Unit, unit)
				} else if !traced && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g; a gated metric is never 0", wl.Name, name, *m.Value)
				}
			}
			if traced && len(res.spans) == 0 {
				t.Errorf("%s: the traced pass recorded no spans", wl.Name)
			}
		}
	}
}

// A predict response whose score disagrees with the one recomputed from
// the generator's weights fails its operation, and a failed operation
// makes the command exit non-zero.
func TestCorruptedExpectedScoreFailsTheRun(t *testing.T) {
	cfg := quickConfig("serve_fleet", false)
	cfg.corrupt = true
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d after one corrupted expectation, want false and 1", res.Correct, res.Failed)
	}
	if code := exitCode(res); code == 0 {
		t.Error("exit code 0 for an incorrect result")
	}
	clean, err := runWorkload(quickConfig("serve_fleet", false))
	if err != nil || exitCode(clean) != 0 {
		t.Errorf("the same run without the corruption: exit %d, %v", exitCode(clean), err)
	}
}

func TestDishonestRunsAreRefused(t *testing.T) {
	cfg := quickConfig("batch_sparse", false)
	cfg.quick = false
	if _, err := runWorkload(cfg); err == nil || !strings.Contains(err.Error(), "under 10 s") {
		t.Errorf("a 0.3 s clock outside -quick was not refused: %v", err)
	}
	var stderr bytes.Buffer
	prev := runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	code := realMain([]string{"-workload", "batch_sparse", "-quick"}, &bytes.Buffer{}, &stderr)
	runtime.GOMAXPROCS(prev)
	if code == 0 || !strings.Contains(stderr.String(), "oversubscribed") {
		t.Errorf("GOMAXPROCS above the core count: exit %d, %q", code, stderr.String())
	}
	if _, err := runWorkload(config{workload: "nope", quick: true}); err == nil {
		t.Error("unknown workload accepted")
	}
}
