// Command bench is the repository's benchmark: five workloads over the two
// paths the system exists for — LibSVM bytes in until a target error is
// reached, and a published version until a prediction is answered from it
// — with every input made from -seed, every output checked, end-to-end
// metrics from an untraced pass and per-layer metrics from a traced one.
// See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// workloadDef is one workload and why it is here.
type workloadDef struct {
	name string
	why  string
	run  func(*run) error
}

var workloads = []workloadDef{
	{"batch_sparse", "kdda-like 300k x 600k, ~10 nnz/row, atomic f64 model that spills L2: per-update overhead is the whole cost and psi gives IS its largest edge",
		func(r *run) error { return runBatch(r, batchSparse) }},
	{"batch_dense", "news20-like 100k x 120k, ~40 nnz/row, racy f32 cache-resident model, balance branch: dot/update arithmetic dominates; psi~1 makes it the control for sampling changes",
		func(r *run) error { return runBatch(r, batchDense) }},
	{"stream_e2e", "the sparse corpus as LibSVM bytes through Reader, ISState and Trainer with a publish per block: parse, importance state and snapshots carry the run, kernels a few percent",
		runStream},
	{"cluster_star", "the dense corpus through a coordinator and 2 workers over loopback HTTP: same engine as batch_dense, so the difference is the protocol (JSON pulls, pushes, long-poll)",
		runCluster},
	{"serve_fleet", "origin plus read-only replica, 8 models republished beside zipf predict traffic: replicate, resolve, score, encode; no training layer runs, so kernel changes must not move it",
		runServe},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runWorkload executes one pass of one workload in this process.
func runWorkload(cfg config) (*result, error) {
	wl := findWorkload(cfg.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if !cfg.quick && cfg.seconds < 10 {
		return nil, fmt.Errorf("refusing to measure for %.3g s: a clock under 10 s is noise (use -quick for a smoke run)", cfg.seconds)
	}
	r := newRun(cfg)
	if err := wl.run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if !cfg.trace {
		r.set("peak_rss_mb", peakRSSMB(), 1, "VmHWM of this process")
	}
	return r.finish(), nil
}

// contractLine is the last line of standard output of a workload run.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *result) contract() contractLine {
	c := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractMetric{}}
	for name, m := range res.Metrics {
		c.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return c
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload in this process and print its result line; empty runs the suite")
		seed     = fs.Uint64("seed", 1, "every input is made from it")
		seconds  = fs.Float64("seconds", 10, "how long each workload's timed section measures")
		trace    = fs.Int("trace", 0, "1 = the traced pass (per-layer metrics); 0 = the untraced pass (end-to-end metrics)")
		quick    = fs.Bool("quick", false, "tiny inputs, targets and refusals off: a smoke test, not a measurement")
		jsonOut  = fs.String("json", "", "suite: write the full report here")
		traceOut = fs.String("trace-out", "", "write the traced pass's spans here (suite: also runs the traced pass)")
		detail   = fs.Bool("detail", false, "with -workload: print the detailed result as the line before the result line")
		aa       = fs.Int("aa", 0, "run the suite's untraced pass as two interleaved sets of N and compare them with the bounds in BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if g, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); g > n {
		return fail(fmt.Errorf("GOMAXPROCS %d exceeds the %d cores available; refusing to run oversubscribed", g, n))
	}
	nproc := min(runtime.GOMAXPROCS(0), 4)
	runtime.GOMAXPROCS(nproc)
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace takes 0 or 1, got %d", *trace))
	}

	if *workload != "" {
		res, err := runWorkload(config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, nproc: nproc})
		if err != nil {
			return fail(err)
		}
		for _, why := range res.Failures {
			fmt.Fprintln(stderr, "bench: FAILED:", why)
		}
		if *traceOut != "" {
			if err := writeJSON(*traceOut, res.spans); err != nil {
				return fail(err)
			}
		}
		enc := json.NewEncoder(stdout)
		if *detail {
			enc.Encode(res) //nolint:errcheck // stdout
		} else {
			printResult(stderr, res)
		}
		enc.Encode(res.contract()) //nolint:errcheck // stdout
		return exitCode(res)
	}

	s := suite{seed: *seed, seconds: *seconds, quick: *quick, stdout: stdout, stderr: stderr}
	if *aa > 0 {
		if err := s.selfCheck(*aa); err != nil {
			return fail(err)
		}
		return 0
	}
	ok, err := s.run(*jsonOut, *traceOut)
	if err != nil {
		return fail(err)
	}
	if !ok {
		return 1
	}
	return 0
}

// exitCode fails the command when any check failed, whatever was measured.
func exitCode(res *result) int {
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult lists every metric of a result by name with unit, direction,
// sample count, median and quartiles.
func printResult(w io.Writer, res *result) {
	pass := "untraced"
	if res.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "%s (%s pass, seed %d, %g s): correct=%v attempted=%d failed=%d clock=%.2fs\n",
		res.Workload, pass, res.Env.Seed, res.Seconds, res.Correct, res.Attempted, res.Failed, res.ClockS)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tunit\tbetter\tn\tmedian\tq1\tq3\tbase")
	for _, d := range metricsOf(res.Trace) {
		m := res.Metrics[d.Name]
		if m.N == 0 {
			continue // a layer this workload does not run
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%s\n", d.Name, d.Unit, d.Better, m.N, m.Value, m.Q1, m.Q3, m.Base)
	}
	tw.Flush()
	for _, k := range sortedKeys(res.Shares) {
		fmt.Fprintf(w, "  share  %-34s %5.1f%%\n", k, 100*res.Shares[k])
	}
	for _, n := range res.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// suite runs workloads as child processes of this binary, one process per
// pass, so each gets a clean heap and its own peak RSS.
type suite struct {
	seed           uint64
	seconds        float64
	quick          bool
	stdout, stderr io.Writer
}

func (s *suite) child(workload string, seed uint64, traced bool, traceOut string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(s.seconds, 'g', -1, 64), "-detail"}
	if traced {
		args = append(args, "-trace", "1")
		if traceOut != "" {
			args = append(args, "-trace-out", traceOut)
		}
	}
	if s.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, s.stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s: no result (%v)", workload, runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &res); err != nil {
		return nil, fmt.Errorf("%s: reading the child's result: %w", workload, err)
	}
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return nil, runErr
	}
	return &res, nil
}

// run is the one command: every workload's untraced pass and, when spans
// are asked for, its traced pass.
func (s *suite) run(jsonOut, traceOut string) (ok bool, err error) {
	type passes struct {
		Untraced *result `json:"untraced"`
		Traced   *result `json:"traced,omitempty"`
	}
	report := struct {
		Env       env      `json:"env"`
		Seconds   float64  `json:"seconds"`
		Workloads []passes `json:"workloads"`
	}{Env: captureEnv(s.seed), Seconds: s.seconds}
	ok = true
	for _, wl := range workloads {
		var p passes
		if p.Untraced, err = s.child(wl.name, s.seed, false, ""); err != nil {
			return false, err
		}
		printResult(s.stdout, p.Untraced)
		ok = ok && p.Untraced.Correct
		if traceOut != "" {
			if p.Traced, err = s.child(wl.name, s.seed, true, filepath.Join(filepath.Dir(traceOut), wl.name+"."+filepath.Base(traceOut))); err != nil {
				return false, err
			}
			printResult(s.stdout, p.Traced)
			ok = ok && p.Traced.Correct
		}
		report.Workloads = append(report.Workloads, p)
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, report); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// selfCheck is -aa: the same binary measured as two interleaved sets of n
// passes, each pass on another seed, compared as the driver compares a
// change with its parent. A metric whose spread or whose shift between the
// sets is not well inside its bound cannot gate anything.
func (s *suite) selfCheck(n int) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for set := range sets {
			for _, wl := range workloads {
				res, err := s.child(wl.name, s.seed+uint64(i), false, "")
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d: %v", wl.name, s.seed+uint64(i), res.Failures)
				}
				for name, m := range res.Metrics {
					k := key{wl.name, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
				fmt.Fprintf(s.stderr, "pass %d set %c %s done\n", i, 'A'+set, wl.name)
			}
		}
	}
	tw := tabwriter.NewWriter(s.stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tq1..q3 A\tspread A\tmedian B\tq1..q3 B\tspread B\tB worse by\tbound\tverdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			k := key{wl.name, d.Name}
			a, b := summarize(sets[0][k]), summarize(sets[1][k])
			worse := (b.Median - a.Median) / a.Median
			if d.Better == "higher" {
				worse = -worse
			}
			bound := bounds[d.Name]
			verdict := "ok"
			switch {
			case d.Name != "setup_s" && max(a.spread(), b.spread()) > bound, worse > bound:
				verdict = "OVER BOUND"
			case d.Name != "setup_s" && max(a.spread(), b.spread()) > bound/3:
				verdict = "wide"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g..%.5g\t%.1f%%\t%.5g\t%.5g..%.5g\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
				wl.name, d.Name, a.Median, a.Q1, a.Q3, 100*a.spread(), b.Median, b.Q1, b.Q3, 100*b.spread(), 100*worse, 100*bound, verdict)
		}
	}
	return tw.Flush()
}

// readBounds loads each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-aa compares against the bounds in %s, run it from the repository root: %w", path, err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
