// Suite-level tests live in an external test package so they can use
// internal/bench (which imports core, which imports sa) without a cycle.
package sa_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"qed2/internal/bench"
	"qed2/internal/circom"
	"qed2/internal/core"
	"qed2/internal/sa"
)

// TestMontgomeryBugExample lints the shipped buggy MontgomeryDouble circuit:
// the pass must surface the unconstrained `lamda <-- .../...` hint and its
// possibly-zero denominator, each pointing at the hint's source line.
func TestMontgomeryBugExample(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "montgomery-bug", "circuit.circom"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := circom.Compile(string(src), &circom.CompileOptions{Library: bench.Library()})
	if err != nil {
		t.Fatal(err)
	}
	res := sa.AnalyzeProgram(prog, nil)
	byDetector := map[string][]sa.Finding{}
	for _, f := range res.Findings {
		byDetector[f.Detector] = append(byDetector[f.Detector], f)
	}
	for _, want := range []string{"possibly-zero-divisor", "hinted-signal"} {
		fs := byDetector[want]
		if len(fs) == 0 {
			t.Fatalf("no %s finding; got %+v", want, res.Findings)
		}
		if fs[0].Signal != "lamda" {
			t.Errorf("%s flagged %s, want lamda", want, fs[0].Signal)
		}
		if fs[0].Loc == "" {
			t.Errorf("%s finding not source-located", want)
		}
	}
}

// TestSuiteLintDeterminism runs the static pass twice over every instance of
// the paper's benchmark suite and demands byte-identical findings — the
// determinism contract `qed2 -lint` advertises.
func TestSuiteLintDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling the full suite is slow")
	}
	for _, inst := range bench.Suite() {
		prog, err := inst.Compile()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		var runs [2][]byte
		for i := range runs {
			res := sa.AnalyzeProgram(prog, nil)
			b, err := json.Marshal(res.Findings)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = b
		}
		if string(runs[0]) != string(runs[1]) {
			t.Errorf("%s: findings differ across runs", inst.Name)
		}
	}
}

// TestSuiteSafeInstancesHaveNoUnreachableOutputs checks the reachability
// detector against ground truth: on instances the paper's analysis proves
// safe, no output may be flagged unreachable (such a flag would be a
// guaranteed false positive, since safe means every output is unique).
func TestSuiteSafeInstancesHaveNoUnreachableOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling the full suite is slow")
	}
	for _, inst := range bench.Suite() {
		if inst.Expect != bench.ExpectSafe {
			continue
		}
		prog, err := inst.Compile()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		res := sa.Analyze(prog.System, nil)
		if len(res.UnreachableOutputs) != 0 {
			t.Errorf("%s: safe instance has unreachable outputs %v", inst.Name, res.UnreachableOutputs)
		}
	}
}

// TestStaticReportDeterministicAcrossWorkers runs the full core analysis at
// different worker counts and requires the embedded static report (and the
// verdict) to be byte-identical — the pre-pass runs before the first round,
// so concurrency must not leak into it.
func TestStaticReportDeterministicAcrossWorkers(t *testing.T) {
	inst, ok := bench.ByName(bench.Suite(), "MontgomeryDouble()")
	if !ok {
		t.Fatal("MontgomeryDouble not in suite")
	}
	prog, err := inst.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var reports [2]*core.Report
	for i, w := range []int{1, 8} {
		reports[i] = core.Analyze(prog.System, &core.Config{Seed: 1, Workers: w})
	}
	if reports[0].Verdict != reports[1].Verdict {
		t.Fatalf("verdict differs across workers: %v vs %v", reports[0].Verdict, reports[1].Verdict)
	}
	var enc [2][]byte
	for i, r := range reports {
		if r.Static == nil {
			t.Fatal("static report missing in ModeFull")
		}
		b, err := json.Marshal(r.Static.Findings)
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = b
	}
	if string(enc[0]) != string(enc[1]) {
		t.Errorf("static findings differ across worker counts:\n%s\n%s", enc[0], enc[1])
	}
}

// TestSuiteStaticInjectionTotals pins how many facts the static pre-pass
// injects across the paper's suite. The findings gate cannot see injected
// facts, so this is the guard that a change to the abstract domains keeps
// the facts core acts on. Only the pre-pass matters here, so the global
// step budget is 1 (the same compile-dominated configuration as
// BenchmarkTable1Stats).
func TestSuiteStaticInjectionTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("compiling the full suite is slow")
	}
	var unique, rangeUnique, rangePruned int
	for _, inst := range bench.Suite() {
		prog, err := inst.Compile()
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		rep := core.Analyze(prog.System, &core.Config{Seed: 1, GlobalSteps: 1})
		unique += rep.Stats.StaticUnique
		rangeUnique += rep.Stats.StaticRangeUnique
		rangePruned += rep.Stats.StaticRangePruned
	}
	const wantUnique, wantRangeUnique, wantRangePruned = 13, 15, 15
	if unique != wantUnique || rangeUnique != wantRangeUnique || rangePruned != wantRangePruned {
		t.Errorf("static injection totals = %d/%d/%d (unique/range-unique/range-pruned), want %d/%d/%d",
			unique, rangeUnique, rangePruned, wantUnique, wantRangeUnique, wantRangePruned)
	}
}
