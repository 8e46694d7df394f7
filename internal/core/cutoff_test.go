package core

import (
	"context"
	"math/big"
	"reflect"
	"testing"

	"qed2/internal/faultinject"
	"qed2/internal/ff"
	"qed2/internal/poly"
	"qed2/internal/r1cs"
	"qed2/internal/smt"
	"qed2/internal/uniq"
)

// assertStopsAtCounterexample pins the round cutoff on an under-constrained
// circuit whose first query confirms: under the golden-gate budget with no
// deadline, the analysis counts exactly wantQueries queries (the cutoff
// index + 1 over all rounds), spends at most one query's grant, reports the
// same whole Stats at 1 and 8 workers, and returns a counterexample on
// wantOut differing exactly on wantDiff. No wall-clock assertion.
func assertStopsAtCounterexample(t *testing.T, sys *r1cs.System, wantQueries int, wantOut string, wantDiff []string) {
	t.Helper()
	cfg := Config{QuerySteps: 20_000, GlobalSteps: 400_000, Seed: 1}
	var base *Stats
	for _, workers := range []int{1, 8} {
		c := cfg
		c.Workers = workers
		r := Analyze(sys, &c)
		if r.Verdict != VerdictUnsafe {
			t.Fatalf("workers=%d: verdict = %v (%s)", workers, r.Verdict, r.Reason)
		}
		if r.Stats.Queries != wantQueries {
			t.Errorf("workers=%d: %d queries, want %d", workers, r.Stats.Queries, wantQueries)
		}
		if r.Stats.SolverSteps > cfg.QuerySteps {
			t.Errorf("workers=%d: %d solver steps, more than one query's grant (%d)",
				workers, r.Stats.SolverSteps, cfg.QuerySteps)
		}
		if got := sys.Name(r.Counter.Signal); got != wantOut {
			t.Errorf("workers=%d: counterexample on %s, want %s", workers, got, wantOut)
		}
		var diff []string
		for i := range r.Counter.W1 {
			if r.Counter.W1[i] != r.Counter.W2[i] {
				diff = append(diff, sys.Name(i))
			}
		}
		if !reflect.DeepEqual(diff, wantDiff) {
			t.Errorf("workers=%d: witnesses differ on %v, want %v", workers, diff, wantDiff)
		}
		s := r.Stats
		s.Workers, s.Duration = 0, 0
		if base == nil {
			base = &s
		} else if !reflect.DeepEqual(*base, s) {
			t.Errorf("stats differ:\nworkers=1 %+v\nworkers=%d %+v", *base, workers, s)
		}
	}
}

// TestRoundStopsAtFirstCounterexample: Decoder(4)'s first full-circuit
// query is SAT on out[0] and confirms, so it is the only query counted.
func TestRoundStopsAtFirstCounterexample(t *testing.T) {
	p := compile(t, decoderBuggy)
	assertStopsAtCounterexample(t, p.System, 1, "out[0]", []string{"out[0]", "success"})
}

// cutoffSystem builds a circuit over F_97 whose outputs o1..o4 are free
// booleans (o·o = o), so every full-circuit query on one of them is SAT
// with a valid witness pair, plus an internal constant k·1 = 5 that no
// output constraint mentions. It returns the system and the index of each
// output's constraint.
func cutoffSystem(t *testing.T) (*r1cs.System, []int, []int) {
	t.Helper()
	f := ff.MustField(big.NewInt(97))
	sys := r1cs.NewSystem(f)
	sys.AddSignal("a", r1cs.KindInput)
	k := sys.AddSignal("k", r1cs.KindInternal)
	sys.AddConstraint(poly.Var(f, k), poly.ConstInt(f, 1), poly.ConstInt(f, 5), "k = 5")
	var outs, cons []int
	for _, name := range []string{"o1", "o2", "o3", "o4"} {
		o := sys.AddSignal(name, r1cs.KindOutput)
		cons = append(cons, sys.NumConstraints())
		sys.AddConstraint(poly.Var(f, o), poly.Var(f, o), poly.Var(f, o), name+" boolean")
		outs = append(outs, o)
	}
	return sys, outs, cons
}

// barrierConfirm is the barrier's counterexample search: the first task in
// canonical order whose SAT model confirms under the round's sharing.
func barrierConfirm(a *analysis, tasks []*queryTask, snap *uniq.Snapshot) *queryTask {
	for _, t := range tasks {
		if t.full && t.out.Status == smt.StatusSat && a.confirmCounterexample(t.sig, t.out.Model, snap.IsUnique) {
			return t
		}
	}
	return nil
}

// TestFailedCheckDoesNotMoveCutoff: a full-circuit SAT model that fails
// the witness-pair check must not stop the round. Task 0 is forged — it
// claims to cover the full circuit but solves only its output's constraint,
// so its model leaves k = 0 and fails CheckWitness. The next task must
// still run, become the cutoff, and be the one the barrier confirms.
func TestFailedCheckDoesNotMoveCutoff(t *testing.T) {
	sys, outs, cons := cutoffSystem(t)
	all := make([]int, sys.NumConstraints())
	for i := range all {
		all[i] = i
	}
	for _, workers := range []int{1, 4} {
		a := newTestAnalysis(sys, Config{Workers: workers, Seed: 1}, context.Background(), nil)
		a.sys.PrepareConcurrent()
		snap := a.prop.Snapshot()
		tasks := []*queryTask{
			{sig: outs[0], cons: cons[:1], full: true},
			{sig: outs[1], cons: all, full: true},
			{sig: outs[2], cons: all, full: true},
		}
		for _, task := range tasks {
			task.budget = a.reserve()
		}
		folded := a.runRound(tasks, snap)

		forged := tasks[0]
		if forged.out.Status != smt.StatusSat {
			t.Fatalf("workers=%d: forged task = %+v, want a SAT model", workers, forged.out)
		}
		if _, _, ok := a.checkWitnessPair(forged.sig, forged.out.Model, snap.IsUnique); ok {
			t.Fatalf("workers=%d: forged model passed the witness-pair check", workers)
		}
		if len(folded) != 2 || !tasks[1].ran {
			t.Fatalf("workers=%d: barrier folds %d tasks (task 1 ran: %v), want 2 with task 1 run",
				workers, len(folded), tasks[1].ran)
		}
		if workers == 1 && tasks[2].ran {
			t.Errorf("workers=1: task past the cutoff was started")
		}
		if got := barrierConfirm(a, folded, snap); got != tasks[1] {
			t.Fatalf("workers=%d: barrier confirmed %v, want task 1", workers, got)
		}
		if a.report.Counter.Signal != outs[1] {
			t.Errorf("workers=%d: counterexample on %s, want o2", workers, sys.Name(a.report.Counter.Signal))
		}
		if rem, held := a.stepsRem.Load(), a.stepsHeld.Load(); held != 0 || rem != a.cfg.GlobalSteps-forged.out.Steps-tasks[1].out.Steps {
			t.Errorf("workers=%d: pool %d (held %d) after the round, want only tasks 0 and 1 charged", workers, rem, held)
		}
	}
}

// TestPanickedTaskBelowCutoffRetriesAndWins: a task below the cutoff that
// panicked still gets its barrier retry, and when the retry confirms it
// wins over the cutoff task, which comes later in canonical order. The
// core.query site fires on its third hit only: tasks 0 and 1 (slice
// queries, never a cutoff) are hits 1 and 2, task 2 panics on hit 3, task 3
// sets the cutoff on hit 4, task 4 never starts, and task 2's retry is hit 5.
func TestPanickedTaskBelowCutoffRetriesAndWins(t *testing.T) {
	sys, outs, cons := cutoffSystem(t)
	all := make([]int, sys.NumConstraints())
	for i := range all {
		all[i] = i
	}
	a := newTestAnalysis(sys, Config{Workers: 1, Seed: 1}, context.Background(), nil)
	a.sys.PrepareConcurrent()
	snap := a.prop.Snapshot()
	tasks := []*queryTask{
		{sig: outs[0], cons: cons[:1]},
		{sig: outs[3], cons: cons[3:]},
		{sig: outs[1], cons: all, full: true},
		{sig: outs[2], cons: all, full: true},
		{sig: outs[3], cons: all, full: true},
	}
	for _, task := range tasks {
		task.budget = a.reserve()
	}
	faultinject.Enable(&faultinject.Plan{Seed: 1, Rules: []faultinject.Rule{
		{Site: "core.query", Kind: faultinject.KindPanic, Every: 3},
	}})
	folded := a.runRound(tasks, snap)
	faultinject.Disable()

	if !tasks[2].panicked || a.nRetries.Load() != 1 {
		t.Fatalf("task 2 panicked=%v, retries=%d; want a panic and one retry", tasks[2].panicked, a.nRetries.Load())
	}
	if len(folded) != 4 || !tasks[3].ran || tasks[4].ran {
		t.Fatalf("barrier folds %d tasks (task 4 ran: %v), want 4 with the cutoff on task 3",
			len(folded), tasks[4].ran)
	}
	if got := barrierConfirm(a, folded, snap); got != tasks[2] {
		t.Fatalf("barrier confirmed %v, want the retried task 2", got)
	}
	if a.report.Counter.Signal != outs[1] {
		t.Errorf("counterexample on %s, want o2", sys.Name(a.report.Counter.Signal))
	}
}

// TestBudgetReasonsSayWhatHappened: while no step has been spent, an empty
// pool is one this round's queries hold in full, and the admission outcome
// says so; once steps were spent the pool is exhausted.
func TestBudgetReasonsSayWhatHappened(t *testing.T) {
	p := compile(t, decoderBuggy)
	const steps = 100
	n := len(uniq.New(p.System).Unknown())
	a := newTestAnalysis(p.System, Config{QuerySteps: steps, GlobalSteps: int64(n) * steps}, context.Background(), nil)
	snap := a.prop.Snapshot()
	tasks := admitTasks(a, snap)
	for _, task := range tasks {
		if task.budget != steps {
			t.Fatalf("task %d: grant %d, want %d", task.sig, task.budget, steps)
		}
	}
	const reserved = "global budget fully reserved by this round's queries"
	extra := &queryTask{sig: tasks[0].sig, cons: tasks[0].cons}
	a.admit(extra, a.sys.SliceAround(extra.sig, 2, 64).Signals, snap)
	if extra.out.Reason != reserved {
		t.Errorf("admission on a fully reserved pool: reason %q, want %q", extra.out.Reason, reserved)
	}

	// Task 0 spends its whole grant: the pool is now genuinely exhausted.
	a.settle(tasks[0].budget, tasks[0].budget)
	a.admit(extra, a.sys.SliceAround(extra.sig, 2, 64).Signals, snap)
	if extra.out.Reason != "global budget exhausted" {
		t.Errorf("admission after spending: reason %q, want %q", extra.out.Reason, "global budget exhausted")
	}
}

// TestRoundCutoffCancelsTasksPastIt: lowering the cutoff cancels exactly
// the running tasks past it, refuses to start them afterwards, and never
// moves the cutoff back up.
func TestRoundCutoffCancelsTasksPastIt(t *testing.T) {
	c := newRoundCutoff(4)
	ctx1, ok1 := c.begin(context.Background(), 1)
	ctx3, ok3 := c.begin(context.Background(), 3)
	if !ok1 || !ok3 {
		t.Fatal("tasks refused before any cutoff")
	}
	c.lower(2)
	if ctx3.Err() == nil {
		t.Error("running task 3 not canceled by cutoff 2")
	}
	if ctx1.Err() != nil {
		t.Error("running task 1 canceled by cutoff 2")
	}
	if _, ok := c.begin(context.Background(), 3); ok {
		t.Error("task 3 started past cutoff 2")
	}
	c.lower(3)
	if got := c.idx.Load(); got != 2 {
		t.Errorf("cutoff = %d after lower(3), want it to stay 2", got)
	}
	ctx2, ok2 := c.begin(context.Background(), 2)
	if !ok2 || ctx2.Err() != nil {
		t.Error("task at the cutoff refused or canceled")
	}
	c.end(1)
	c.end(2)
	c.end(3)
	if len(c.running) != 0 {
		t.Errorf("%d tasks still registered after end", len(c.running))
	}
}
