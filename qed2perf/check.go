package main

import (
	"fmt"

	"qed2/internal/bench"
	"qed2/internal/core"
	"qed2/internal/r1cs"
)

// Output checks. Every verdict is compared with ground truth that does not
// come from the analyzer: the suite's hand-assigned expectations, the
// generator's self-validated labels, and the checked-in golden verdicts.
// Counterexamples are replayed against the constraint system.

// golden indexes the checked-in golden verdicts by instance name. Names
// identify inputs exactly: suite names are fixed templates and generator
// names pin (profile, seed) under one generator version, so the golden
// verdict applies to any run that produces the same name.
type golden map[string]string

func loadGolden(path string) (golden, bench.GoldenConfig, error) {
	g, err := bench.LoadGolden(path)
	if err != nil {
		return nil, bench.GoldenConfig{}, err
	}
	idx := golden{}
	for _, v := range g.Verdicts {
		idx[v.Name] = v.Verdict
	}
	return idx, g.Config, nil
}

func definite(v string) bool {
	return v == core.VerdictSafe.String() || v == core.VerdictUnsafe.String()
}

// compare classifies a fresh verdict against the golden one: a definite
// verdict that contradicts a definite golden verdict is an error; a
// difference between unknown and definite is drift, which shows in the
// decided count instead.
func (g golden) compare(name, verdict string) (drift string, err error) {
	want, ok := g[name]
	if !ok || want == verdict {
		return "", nil
	}
	if definite(want) && definite(verdict) {
		return "", fmt.Errorf("%s: verdict %s contradicts golden %s", name, verdict, want)
	}
	return fmt.Sprintf("%s: %s (golden %s)", name, verdict, want), nil
}

// checkInstance checks one analyzed instance: no degradation, no verdict
// against its expectation or generator label, and a counterexample that
// replays.
func checkInstance(inst bench.Instance, sys *r1cs.System, rep *core.Report) error {
	if rep.Degraded != core.DegradedNone {
		return fmt.Errorf("%s: degraded report (%s: %s)", inst.Name, rep.Degraded, rep.Reason)
	}
	switch {
	case rep.Verdict == core.VerdictSafe && inst.Expect == bench.ExpectUnsafe:
		return fmt.Errorf("%s: safe verdict on a known-unsafe circuit", inst.Name)
	case rep.Verdict == core.VerdictUnsafe && inst.Expect == bench.ExpectSafe:
		return fmt.Errorf("%s: unsafe verdict on a known-safe circuit", inst.Name)
	}
	if gt := bench.CheckGroundTruth([]bench.Result{{Instance: inst, Report: rep}}); len(gt.Violations) > 0 {
		return fmt.Errorf("%s", gt.Violations[0])
	}
	if rep.Verdict == core.VerdictUnsafe {
		if err := checkCounterExample(sys, rep.Counter); err != nil {
			return fmt.Errorf("%s: %v", inst.Name, err)
		}
	}
	return nil
}

// checkCounterExample replays a witness pair: both witnesses satisfy every
// constraint, agree on every input, and differ on the reported output.
func checkCounterExample(sys *r1cs.System, ce *core.CounterExample) error {
	if ce == nil {
		return fmt.Errorf("unsafe verdict without a counterexample")
	}
	if err := sys.CheckWitness(ce.W1); err != nil {
		return fmt.Errorf("counterexample witness 1 rejected: %v", err)
	}
	if err := sys.CheckWitness(ce.W2); err != nil {
		return fmt.Errorf("counterexample witness 2 rejected: %v", err)
	}
	if !r1cs.AgreeOn(ce.W1, ce.W2, sys.Inputs()) {
		return fmt.Errorf("counterexample witnesses disagree on an input")
	}
	if ce.Signal <= 0 || ce.Signal >= sys.NumSignals() || sys.Signal(ce.Signal).Kind != r1cs.KindOutput {
		return fmt.Errorf("counterexample signal %d is not an output", ce.Signal)
	}
	if ce.W1[ce.Signal] == ce.W2[ce.Signal] {
		return fmt.Errorf("counterexample witnesses agree on output %s", sys.Name(ce.Signal))
	}
	return nil
}
