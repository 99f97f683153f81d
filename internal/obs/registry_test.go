package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/isasgd/isasgd/internal/obs/obstest"
)

func exposition(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return sb.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "A counter.")
	c.Add(41)
	c.Inc()
	g := r.GaugeVec("test_gauge", "A gauge.", "shard").With("a")
	g.Set(2.5)
	r.GaugeVec("test_gauge", "A gauge.", "shard").With("b").Set(-1)

	out := exposition(t, r)
	for _, want := range []string{
		"# HELP test_total A counter.\n",
		"# TYPE test_total counter\n",
		"test_total 42\n",
		"# TYPE test_gauge gauge\n",
		`test_gauge{shard="a"} 2.5` + "\n",
		`test_gauge{shard="b"} -1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if err := obstest.Lint(strings.NewReader(out)); err != nil {
		t.Errorf("Lint: %v", err)
	}
	// Families are sorted by name: test_gauge before test_total.
	if gi, ti := strings.Index(out, "test_gauge"), strings.Index(out, "test_total"); gi > ti {
		t.Errorf("families not sorted: gauge at %d, counter at %d", gi, ti)
	}
}

func TestSummaryExposition(t *testing.T) {
	r := NewRegistry()
	h := r.SummaryVec("lat_seconds", "Latency.", 1e-9, "model").With("m")
	for i := 0; i < 100; i++ {
		h.ObserveDuration(time.Millisecond)
	}
	out := exposition(t, r)
	for _, want := range []string{
		"# TYPE lat_seconds summary\n",
		`lat_seconds{model="m",quantile="0.5"} `,
		`lat_seconds{model="m",quantile="0.95"} `,
		`lat_seconds{model="m",quantile="0.99"} `,
		`lat_seconds_sum{model="m"} 0.1`,
		`lat_seconds_count{model="m"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if err := obstest.Lint(strings.NewReader(out)); err != nil {
		t.Errorf("Lint: %v", err)
	}
	if got := h.Count(); got != 100 {
		t.Errorf("Count = %d, want 100", got)
	}
	if q := h.Quantile(0.5); q < 0.0005 || q > 0.002 {
		t.Errorf("median %g out of range for 1ms observations", q)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("esc", "h", "v").With("a\"b\\c\nd").Set(1)
	out := exposition(t, r)
	want := `esc{v="a\"b\\c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped series %q missing in:\n%s", want, out)
	}
	if err := obstest.Lint(strings.NewReader(out)); err != nil {
		t.Errorf("Lint: %v", err)
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("multi", "line one\nline two \\ backslash").Set(1)
	out := exposition(t, r)
	if !strings.Contains(out, `# HELP multi line one\nline two \\ backslash`+"\n") {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	if err := obstest.Lint(strings.NewReader(out)); err != nil {
		t.Errorf("Lint: %v", err)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("dup_total", "h", "l").With("x")
	b := r.CounterVec("dup_total", "h", "l").With("x")
	if a != b {
		t.Error("same family+labels returned distinct counters")
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("shape_total", "h")
	defer func() {
		if recover() == nil {
			t.Error("re-registering with a different shape did not panic")
		}
	}()
	r.GaugeVec("shape_total", "h", "l")
}

func TestCollectReplaceAndSorting(t *testing.T) {
	r := NewRegistry()
	r.Collect("jobs", "Jobs.", TypeGauge, []string{"state"}, func(emit Emit) {
		emit([]string{"zzz"}, 1)
	})
	// Re-registering replaces the callback rather than stacking it.
	r.Collect("jobs", "Jobs.", TypeGauge, []string{"state"}, func(emit Emit) {
		emit([]string{"running"}, 2)
		emit([]string{"done"}, 5)
	})
	out := exposition(t, r)
	if strings.Contains(out, "zzz") {
		t.Error("stale collect callback still emitting")
	}
	di, ri := strings.Index(out, `jobs{state="done"} 5`), strings.Index(out, `jobs{state="running"} 2`)
	if di < 0 || ri < 0 || di > ri {
		t.Errorf("collect samples missing or unsorted:\n%s", out)
	}
	if err := obstest.Lint(strings.NewReader(out)); err != nil {
		t.Errorf("Lint: %v", err)
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "h").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	if err := obstest.Lint(strings.NewReader(rec.Body.String())); err != nil {
		t.Errorf("Lint: %v", err)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("neg_total", "h")
	c.Add(5)
	c.Add(-3)
	if got := c.Count(); got != 5 {
		t.Errorf("Count = %d, want 5 (negative adds ignored)", got)
	}
}

func TestGaugeAdd(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	g.Add(2.5)
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Errorf("Value = %g, want 3", got)
	}
}

// TestConcurrentRegisterObserveExpose is the -race gate: registration,
// observation and exposition race freely against each other.
func TestConcurrentRegisterObserveExpose(t *testing.T) {
	r := NewServiceRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c := r.CounterVec("conc_total", "h", "w").With(fmt.Sprint(j % 7))
				c.Inc()
				r.GaugeVec("conc_gauge", "h", "w").With(fmt.Sprint(i)).Set(float64(j))
				r.SummaryVec("conc_seconds", "h", 1e-9, "w").With(fmt.Sprint(i)).
					ObserveDuration(time.Duration(j))
			}
		}(i)
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				if err := r.WriteText(&sb); err != nil {
					t.Errorf("WriteText: %v", err)
					return
				}
				if err := obstest.Lint(strings.NewReader(sb.String())); err != nil {
					t.Errorf("Lint mid-registration: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-writerDone

	var total int64
	for j := 0; j < 7; j++ {
		total += r.CounterVec("conc_total", "h", "w").With(fmt.Sprint(j)).Count()
	}
	if total != 4*200 {
		t.Errorf("lost counter increments: total = %d, want 800", total)
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no type":        "orphan 1\n",
		"bad value":      "# HELP a h\n# TYPE a gauge\na one\n",
		"bad escape":     "# HELP a h\n# TYPE a gauge\na{l=\"x\\q\"} 1\n",
		"unquoted":       "# HELP a h\n# TYPE a gauge\na{l=x} 1\n",
		"type no help":   "# TYPE a gauge\na 1\n",
		"double type":    "# HELP a h\n# TYPE a gauge\n# TYPE a gauge\n",
		"unknown type":   "# HELP a h\n# TYPE a widget\n",
		"trailing field": "# HELP a h\n# TYPE a gauge\na 1 2 3\n",
	}
	for name, in := range cases {
		if err := obstest.Lint(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Lint accepted %q", name, in)
		}
	}
}

func TestLintAcceptsSummaryChildren(t *testing.T) {
	in := "# HELP s h\n# TYPE s summary\n" +
		`s{quantile="0.5"} 1` + "\ns_sum 2\ns_count 3\n"
	if err := obstest.Lint(strings.NewReader(in)); err != nil {
		t.Errorf("Lint: %v", err)
	}
}

func TestBuildInfo(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r)
	out := exposition(t, r)
	if !strings.Contains(out, `isasgd_build_info{version="`+Version+`",go_version="go`) {
		t.Errorf("build info missing:\n%s", out)
	}
	if FullVersion() == "" || !strings.Contains(FullVersion(), Version) {
		t.Errorf("FullVersion = %q", FullVersion())
	}
}

func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	out := exposition(t, r)
	for _, fam := range []string{
		"isasgd_goroutines", "isasgd_heap_alloc_bytes", "isasgd_heap_sys_bytes",
		"isasgd_gc_cycles_total", `isasgd_gc_pause_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("runtime family %q missing in:\n%s", fam, out)
		}
	}
	if err := obstest.Lint(strings.NewReader(out)); err != nil {
		t.Errorf("Lint: %v", err)
	}
}
