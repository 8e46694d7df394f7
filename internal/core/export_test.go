package core

// AssertStopsAtCounterexample exposes the round-cutoff assertion to the
// external tests, which can import the evaluation suite.
var AssertStopsAtCounterexample = assertStopsAtCounterexample
