package serve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

var updateCompileGolden = flag.Bool("update-compile-golden", false,
	"rewrite testdata/compile.golden from the current compile")

// diffCase is one generated submission: a JSON job spec and whether it
// arrives as an upload (POST /v1/jobs/stream) or as POST /v1/jobs.
type diffCase struct {
	upload bool
	body   string
}

func (c diffCase) key() string {
	if c.upload {
		return "upload " + c.body
	}
	return "jobs " + c.body
}

// diffSpecs generates the differential corpus: algo × kind × precision ×
// adaptive knobs, then single-knob boundary values over a batch base and
// a streaming base.
func diffSpecs() []diffCase {
	var out []diffCase
	seen := map[diffCase]bool{}
	add := func(upload bool, m map[string]any) {
		b, err := json.Marshal(m) // map keys marshal sorted: stable bodies
		if err != nil {
			panic(err)
		}
		if c := (diffCase{upload, string(b)}); !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	with := func(base map[string]any, k string, v any) map[string]any {
		m := map[string]any{}
		for bk, bv := range base {
			m[bk] = bv
		}
		if v == nil {
			delete(m, k)
		} else {
			m[k] = v
		}
		return m
	}
	batch := map[string]any{"dataset": "small"}
	path := map[string]any{"kind": "stream", "dim": 8, "path": "c.libsvm"}
	upload := map[string]any{"dim": 8}
	kinds := []struct {
		upload bool
		base   map[string]any
	}{
		{false, batch},
		{false, with(batch, "kind", "batch")},
		{false, path},
		{true, upload},
	}
	algos := []string{"", "sgd", "is-sgd", "asgd", "is-asgd", "svrg-sgd", "svrg-asgd", "saga", "bogus"}
	precs := []string{"", "f32", "bogus"}
	adaptive := []map[string]any{
		{},
		{"adapt_c": 0.5},
		{"staleness_bound": 8},
		{"staleness_bound": -1},
		{"dc_lambda": 0.1},
		{"importance": "loss"},
	}
	for _, kd := range kinds {
		for _, a := range algos {
			for _, p := range precs {
				for _, ad := range adaptive {
					m := with(kd.base, "algo", a)
					if a == "" {
						delete(m, "algo")
					}
					if p != "" {
						m["precision"] = p
					}
					for k, v := range ad {
						m[k] = v
					}
					add(kd.upload, m)
				}
			}
		}
	}

	// Boundary values, one knob at a time, on every base they can reach.
	bounds := map[string][]any{
		"algo":              {"IS_ASGD", " Is-Sgd "},
		"precision":         {"F32", "fp64", "single"},
		"objective":         {"logistic-l1", "sqhinge-l2", "lsq-l2", "bogus"},
		"eta":               {0, -1, 1e-3},
		"step":              {0, -1, 1e-9, 4, 1e308},
		"step_decay":        {0, 0.5, 1, 1.5, -0.1},
		"epochs":            {0, -1, 1, 100000000, 100000001},
		"threads":           {0, 1, 2, 3, 1024, 1025, -1},
		"batch":             {0, 1, 8, -1, 1 << 21},
		"eval_every":        {0, -1, 3},
		"seed":              {0, 7},
		"scale":             {0, 0.5, 1, 1.5, -1},
		"min_dim":           {0, 50},
		"dataset":           {"small", "news20s", "news20", "urls", "url", "kddas", "kdda", "kddbs", "kddb", "bogus"},
		"data":              {"1 1:0.5 3:-1\n-1 2:1\n", "not libsvm"},
		"adapt_c":           {-1, 0.5},
		"staleness_bound":   {-1, 0, 16},
		"dc_lambda":         {-1, 0.1},
		"importance":        {"", "bound", "loss", "bogus"},
		"dim":               {0, 1, -1, 1 << 28, 1<<28 + 1},
		"block_size":        {-1, 0, 64, 1 << 22, 1<<22 + 1},
		"window_blocks":     {-1, 0, 2, 1 << 12, 1<<12 + 1},
		"updates_per_block": {-1, 0, 100, 1 << 26, 1<<26 + 1},
		"reservoir":         {-1, 0, 100, 1 << 24, 1<<24 + 1},
		"rebuild_every":     {-1, 0, 5},
		"path":              {"", "c.libsvm", "missing.libsvm", "sub", "../escape.libsvm"},
		"kind":              {"", "batch", "stream", "cluster", "bogus"},
	}
	keys := make([]string, 0, len(bounds))
	for k := range bounds {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, v := range bounds[k] {
			add(false, with(batch, k, v))
			add(false, with(path, k, v))
			add(true, with(upload, k, v))
		}
	}
	add(false, map[string]any{})
	add(false, map[string]any{"dataset": "small", "data": "1 1:1\n"})
	add(false, map[string]any{"dataset": "small", "scale": 0.5, "seed": 9, "algo": "asgd", "threads": 2,
		"epochs": 3, "step": 0.25, "step_decay": 0.9, "eta": 1e-3, "eval_every": 2})
	add(false, map[string]any{"kind": "stream", "path": "c.libsvm", "dim": 16, "algo": "sgd", "threads": 2,
		"block_size": 32, "window_blocks": 3, "updates_per_block": 50, "reservoir": 64, "rebuild_every": 7,
		"step": 0.25, "step_decay": 0.9, "eta": 1e-3, "seed": 4, "objective": "lsq-l2"})
	return out
}

// diffRoot builds the stream root the path cases resolve against: one
// corpus file and one directory.
func diffRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "c.libsvm"), []byte("1 1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	return root
}

// submitOutcome decodes and compiles a case the way the HTTP handlers
// do: an unknown field or a compile error answers 400; an accepted spec
// is rendered as everything the job runs with.
func submitOutcome(c diffCase, root string) (status int, render string) {
	var spec JobSpec
	dec := json.NewDecoder(strings.NewReader(c.body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return 400, ""
	}
	if c.upload {
		spec.Kind = "stream"
	}
	r, err := compile(spec, c.upload, root)
	if err != nil {
		return 400, ""
	}
	return 202, renderResolved(r)
}

// renderResolved prints every field a compiled job reads: the data
// source, the objective, the batch config and, for streaming jobs, the
// stream config, block size and source file name.
func renderResolved(r *resolved) string {
	var b strings.Builder
	if r.synth != nil {
		fmt.Fprintf(&b, "synth=%+v\n", *r.synth)
	}
	if r.ds != nil {
		fmt.Fprintf(&b, "inline=%s n=%d dim=%d\n", r.ds.Name, r.ds.N(), r.ds.Dim())
	}
	fmt.Fprintf(&b, "obj=%#v\n", r.obj)
	// The layout is the golden's. A field the configs no longer have
	// prints the value every job had then — no spec set the batch
	// adaptive re-estimation cadence, the sequence shuffle, partial bias
	// or skip-µ, and the loss-EMA weight only with its own knob, whose
	// cases are gone; a job without a balance knob compiled to mode
	// auto at an unset ζ, and the knob's cases are gone too; a job
	// without adapt_c or staleness_bound compiled them to 0, and a batch
	// or stream job that sets them is now a 400 — so the hashes of jobs
	// that did not change still match.
	c := r.cfg
	fmt.Fprintf(&b, "cfg=algo:%v epochs:%d step:%g decay:%g threads:%d balance:%v zeta:%g seed:%d eval:%d prec:%q adapt_c:%g bound:%d dc:%g shufseq:%v partial:%v adaptevery:%d skipmu:%v kind:%v\n",
		c.Algo, c.Epochs, c.Step, c.StepDecay, c.Threads, "auto", 0.0, c.Seed, c.EvalEvery, c.Precision,
		0.0, 0, c.DCLambda, false, false, 0, false, c.ModelKind)
	if s := r.stream; s != nil {
		rel := ""
		if r.streamPath != "" {
			rel = filepath.Base(r.streamPath)
		}
		fmt.Fprintf(&b, "stream=obj:%#v dim:%d workers:%d step:%g decay:%g window:%d upb:%d reservoir:%d rebuild:%d mode:%v zeta:%g uniform:%v importance:%q beta:%g adapt_c:%g bound:%d kind:%v prec:%q seed:%d publish:%d\n",
			s.Obj, s.Dim, s.Workers, s.Step, s.StepDecay, s.WindowBlocks, s.UpdatesPerBlock, s.Reservoir, s.RebuildEvery,
			"auto", 0.0, s.Uniform, s.Importance, 0.0, 0.0, 0, s.ModelKind, s.Precision, s.Seed, s.PublishEvery)
		fmt.Fprintf(&b, "block=%d path=%q\n", r.blockSize, rel)
	}
	return b.String()
}

func renderHash(s string) string {
	h := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", h[:8])
}

// intendedDiff reports why a case may differ from the golden, which was
// recorded from the compile before the one training spec: "" when it
// must match exactly.
func intendedDiff(c diffCase) string {
	var m map[string]any
	_ = json.Unmarshal([]byte(c.body), &m)
	if _, ok := m["batch"]; ok {
		return "batch" // minibatch is gone: any batch field is an unknown field
	}
	if ds, _ := m["dataset"].(string); presetAlias[ds] != "" {
		return "alias"
	}
	if m["importance"] == "loss" {
		return "loss" // loss importance is gone: grad replaced it
	}
	if m["kind"] == "stream" || c.upload {
		for _, k := range []string{"scale", "min_dim"} {
			if v, ok := m[k]; ok && v != float64(0) {
				return "stream-ignored"
			}
		}
	}
	return ""
}

// presetAlias maps the datagen/cluster preset spellings to serve's.
var presetAlias = map[string]string{"news20": "news20s", "url": "urls", "kdda": "kddas", "kddb": "kddbs"}

// TestCompileDifferential replays the generated corpus against the
// golden recorded from the compile that preceded the one training spec.
// Every spec that compiled then compiles to an identical job now, and
// every spec rejected then is still a 400, except the intended
// differences: a spec naming batch is a 400 (minibatch was deleted);
// the alias preset spellings compile exactly like serve's spelling; a
// streaming spec setting scale or min_dim is a 400 (they were silently
// ignored); importance loss is a 400 (gradient-norm importance, grad,
// replaced the loss EMA). The cases that set the loss-EMA weight knob
// left the golden with it. Two kinds of row were re-recorded in the
// golden itself when SVRG moved onto the engine's loop: saga is a 400
// (the algo is gone), and svrg-sgd or svrg-asgd at f32 without an
// adaptive knob is accepted (the sparse form runs at either precision).
// The cases that set the balance knob left the golden with it, and the
// one row that set it among other knobs was re-recorded without it. The
// rows of batch and stream jobs that set adapt_c or staleness_bound were
// re-recorded as 400 when the in-process trainers lost their staleness
// policy: those knobs are the cluster coordinator's alone.
func TestCompileDifferential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	root := diffRoot(t)
	cases := diffSpecs()
	golden := filepath.Join("testdata", "compile.golden")
	if *updateCompileGolden {
		var buf bytes.Buffer
		for _, c := range cases {
			st, r := submitOutcome(c, root)
			h := "-"
			if st == 202 {
				h = renderHash(r)
			}
			fmt.Fprintf(&buf, "%d %s %s\n", st, h, c.key())
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][2]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), " ", 3)
		want[parts[2]] = [2]string{parts[0], parts[1]}
	}
	if len(want) == 0 {
		t.Fatal("empty golden")
	}
	seen := 0
	for _, c := range cases {
		w, ok := want[c.key()]
		if !ok {
			continue
		}
		seen++
		st, r := submitOutcome(c, root)
		got := [2]string{fmt.Sprint(st), "-"}
		if st == 202 {
			got[1] = renderHash(r)
		}
		switch intendedDiff(c) {
		case "batch", "stream-ignored", "loss":
			if st != 400 {
				t.Errorf("%s: status %d, want 400", c.key(), st)
			}
			continue
		case "alias":
			var m map[string]any
			_ = json.Unmarshal([]byte(c.body), &m)
			m["dataset"] = presetAlias[m["dataset"].(string)]
			b, _ := json.Marshal(m)
			canon := diffCase{c.upload, string(b)}
			if cst, cr := submitOutcome(canon, root); cst != st || (st == 202 && cr != r) {
				t.Errorf("%s: compiles unlike %s", c.key(), canon.key())
			}
			continue
		}
		if got != w {
			t.Errorf("%s: got status %s hash %s, golden %s %s\n%s", c.key(), got[0], got[1], w[0], w[1], r)
		}
	}
	if seen != len(want) {
		t.Errorf("golden has %d cases, the generator reproduced %d", len(want), seen)
	}
}
