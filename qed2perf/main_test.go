package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"qed2/internal/bench"
	"qed2/internal/core"
	"qed2/internal/gen"
	"qed2/internal/service"
)

// TestMain doubles the test binary as the sandbox worker, as cmd/qed2d and
// the benchmark binary do, so the traced smoke runs re-execute it as the
// service sandbox.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(service.WorkerMain(os.Args[2:], os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{163, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.p, c.ok)
		}
	}

	var d dist
	for i := 1; i <= 163; i++ {
		d = append(d, float64(i))
	}
	if m := pctMetric("verdict_p90_ms", d, 90); m.Value != 147 || m.N != 163 || m.Note != "p90, 16 beyond" {
		t.Errorf("p90 of 1..163 = %+v, want 147 with 16 beyond and n=163", m)
	}
	if note := tailNote(d); note != "p90 = 147.000 ms (n=163, 16 beyond)" {
		t.Errorf("tailNote = %q", note)
	}
}

// TestFailedSubmissionAccounting checks that a rejected submission and one
// whose report never arrives count as attempted and failed, and sort above
// any latency limit.
func TestFailedSubmissionAccounting(t *testing.T) {
	entry := gen.ManifestEntry{Name: "gen/safe-1", Seed: 1, Profile: gen.ProfileSafe, Label: gen.ProfileSafe}
	inst := bench.CorpusInstance(entry)
	prog, err := inst.Compile()
	if err != nil {
		t.Fatal(err)
	}
	eng := service.New(service.Config{Analyzer: core.Config{Workers: 1, Seed: 1}})
	defer eng.Close()
	job, err := eng.SubmitR1CS(serviceTenant, prog.System.MarshalText())
	if err != nil {
		t.Fatal(err)
	}
	running, done := watch(context.Background(), job)
	due := time.Now().Add(-time.Millisecond)
	s := &svc{circuits: []circuit{{inst: inst, outputs: map[string]bool{}}}}
	subs := []submission{
		{due: due, sent: due, running: running, done: done, job: job},
		{due: due, sent: due, err: service.ErrQueueFull},
		{due: due, sent: due, job: job}, // report never arrived
	}
	var out outcome
	lat := s.judge(subs, &out)
	if out.Attempted != 3 || out.Failed != 2 || math.IsInf(lat[0], 0) {
		t.Fatalf("attempted %d failed %d latencies %v, want 3 attempted, 2 failed, a finite first latency (failures %v)", out.Attempted, out.Failed, lat, out.Failures)
	}
	if f := out.failedFrac(); math.Abs(f.Value-2.0/3) > 1e-12 || f.N != 3 {
		t.Errorf("failed_frac = %+v, want 2/3 over 3", f)
	}
	if !strings.Contains(out.Failures[0], "rejected") {
		t.Errorf("first failure %q does not say rejected", out.Failures[0])
	}
	if p50 := pctMetric("verdict_p50_ms", lat, 50); p50.Value != math.MaxFloat64 {
		t.Errorf("p50 with two of three failed = %g, want above any limit", p50.Value)
	}
}

func TestGoldenCompare(t *testing.T) {
	g := golden{"a": "safe", "b": "unknown"}
	if _, err := g.compare("a", "unsafe"); err == nil {
		t.Error("definite verdict contradicting a definite golden verdict passed")
	}
	if drift, err := g.compare("a", "unknown"); err != nil || drift == "" {
		t.Errorf("unknown vs golden safe: drift %q, err %v; want drift", drift, err)
	}
	if drift, err := g.compare("b", "safe"); err != nil || drift == "" {
		t.Errorf("safe vs golden unknown: drift %q, err %v; want drift", drift, err)
	}
	if drift, err := g.compare("c", "safe"); err != nil || drift != "" {
		t.Errorf("instance without a golden verdict: drift %q, err %v", drift, err)
	}
}

func TestCounterExampleRecheck(t *testing.T) {
	c, err := gen.Generate(gen.Spec{Seed: 7, Profile: gen.ProfileUnsafe})
	if err != nil {
		t.Fatal(err)
	}
	ce := &core.CounterExample{W1: c.W1, W2: c.W2, Signal: c.PlantedOutput}
	if err := checkCounterExample(c.System, ce); err != nil {
		t.Fatalf("planted pair rejected: %v", err)
	}
	bad := &core.CounterExample{W1: c.W1, W2: c.W1.Clone(), Signal: c.PlantedOutput}
	if err := checkCounterExample(c.System, bad); err == nil {
		t.Error("witness pair agreeing on the output passed")
	}
	tampered := c.W2.Clone()
	tampered[c.PlantedOutput] = c.W1[c.PlantedOutput]
	if err := checkCounterExample(c.System, &core.CounterExample{W1: c.W1, W2: tampered, Signal: c.PlantedOutput}); err == nil {
		t.Error("witness that violates a constraint passed")
	}
}

// definedMetrics reads the metric names BENCHMARK.json declares.
func definedMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, m := range def.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range def.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func sortedNames(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs each workload briefly, untraced and traced (which drives
// the service too), and checks that every output check passes and the
// reported metrics are exactly the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := definedMetrics(t)
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	for _, w := range []struct {
		name    string
		limit   int
		seconds time.Duration
	}{
		{"suite", 4, time.Millisecond},
		{"corpus", 12, time.Second},
	} {
		for _, traced := range []bool{false, true} {
			o := &opts{workload: w.name, seed: 3, seconds: w.seconds, trace: traced, root: "..",
				exe: os.Args[0], traceOut: filepath.Join(t.TempDir(), "trace.jsonl"), limit: w.limit}
			out, err := runWorkload(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, traced, out.Failed, out.Attempted, out.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := sortedNames(out.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v metrics\n got %v\nwant %v", w.name, traced, got, want)
			}
			var buf strings.Builder
			if err := out.print(&buf, "smoke"); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result line %q (err %v)", w.name, traced, lines[len(lines)-1], err)
			}
			if traced {
				if _, err := os.Stat(o.traceOut); err != nil {
					t.Errorf("%s: traced run wrote no spans: %v", w.name, err)
				}
			}
		}
	}
}
