package core_test

import (
	"testing"

	"qed2/internal/bench"
	"qed2/internal/core"
)

// TestSuiteDecoder32StopsAtFirstCounterexample pins the largest waste the
// round cutoff removes: the suite's Decoder(32) confirms on its first
// full-circuit query, and the 19 sibling queries that used to run before
// the barrier confirmed it are neither run nor counted.
func TestSuiteDecoder32StopsAtFirstCounterexample(t *testing.T) {
	for _, inst := range bench.Suite() {
		if inst.Name != "Decoder(32)" {
			continue
		}
		p, err := inst.Compile()
		if err != nil {
			t.Fatal(err)
		}
		core.AssertStopsAtCounterexample(t, p.System, 1, "out[0]", []string{"out[0]", "success"})
		return
	}
	t.Fatal("suite has no Decoder(32)")
}
