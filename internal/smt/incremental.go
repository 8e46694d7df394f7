package smt

// Incremental solving across related queries.
//
// The QED² scheduler issues many two-copy uniqueness queries over the same
// constraint slice: sibling targets in one round share every equation and
// differ only in the final target ≠ target′ disequality, and re-queries in
// later rounds differ only by which signals became shared. A Session
// retains the propagated elimination state of the common base (equations
// only, no disequalities) so each query pays for the diff instead of
// re-running Gaussian elimination from the raw Problem:
//
//   - Solve clones the base fixpoint, applies the retained substitutions
//     to the per-target disequality, and continues the search from there.
//     Because pickPivot never consults disequalities, the base fixpoint is
//     exactly the state a from-scratch solve of base ∧ neq would reach, so
//     a continuation on an unextended session returns byte-identical
//     outcomes (status, model, reason) to Solve on the full problem — with
//     stepBias aligning even the budget-exhaustion point (see solver.step).
//   - Extend grows the base in place when the shared-signal mask grows:
//     each newly shared signal v contributes the merge equation v′ − v = 0,
//     and propagation resumes on the constraint diff alone. The merge maps
//     solutions of the extended base bijectively onto solutions of a freshly
//     built base with v′ renamed to v, so SAT/UNSAT verdicts are preserved;
//     models, however, may differ from the from-scratch ones (the search
//     tree changes shape), which is why the scheduler routes only non-full
//     queries — whose models are never consumed — through extended sessions.
//   - Facts exposes the root-level eliminations of the base fixpoint as
//     replay-safe learned facts: each one is a universal consequence of the
//     base equations, so it may be injected into any sibling query over the
//     same constraint set with an equal-or-larger shared mask.
//
// A Session is immutable during querying: Solve only clones. NewSession and
// Extend are the mutation points, and also the chaos points — the
// "smt.incremental" faultinject site can poison a session there, which
// callers must treat as "fall back to from-scratch solving".

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"qed2/internal/faultinject"
	"qed2/internal/ff"
	"qed2/internal/obs"
	"qed2/internal/poly"
)

// Session holds the reusable elimination state of a base problem (a
// conjunction of equations, no disequalities).
type Session struct {
	f *ff.Field
	// base is the propagated fixpoint state; nil when poisoned or when the
	// base is conflicting.
	base *state
	// baseEqs are the deduplicated original equations (plus Extend's merge
	// equations), kept for defensive model checking of continuations.
	baseEqs []Equation
	// baseVars is the ascending variable list of the base problem.
	baseVars []int
	// baseSteps is the cumulative step count of base propagation (build
	// plus extensions); continuations use it as their budget bias.
	baseSteps int64
	// conflict marks a base proven unsatisfiable on its own: every
	// continuation is then UNSAT without further search.
	conflict bool
	// exact is true until the first Extend: continuations of an exact
	// session reproduce from-scratch outcomes byte-for-byte.
	exact bool

	poisoned     bool
	poisonReason string
}

// VarMerge asks Extend to identify two base variables: Drop (the primed
// copy) becomes equal to Keep (the shared original).
type VarMerge struct {
	Keep, Drop int
}

// Fact is one root-level elimination x := Expr of a base fixpoint — a
// universal consequence of the base equations, safe to replay as the
// linear equation x − Expr = 0 in any query over the same (or a more
// shared) base.
type Fact struct {
	Var  int
	Expr *poly.LinComb
}

// checkIncrementalFault consults the "smt.incremental" chaos site; a
// non-empty return is the poison reason. Injected panics propagate to the
// caller's recover boundary.
func checkIncrementalFault() string {
	if !faultinject.Enabled() {
		return ""
	}
	switch f := faultinject.Check("smt.incremental"); {
	case f.Deadline:
		return DeadlineExceeded
	case f.Err != "":
		return f.Err
	}
	return ""
}

// NewSession builds a session from the base problem: equations are
// deduplicated exactly like Solve would, then propagated to fixpoint under
// opts' budget/deadline. A session that could not complete propagation is
// poisoned, never half-usable; callers then solve from scratch.
func NewSession(p *Problem, opts *Options) *Session {
	o := opts.withDefaults()
	sess := &Session{f: p.Field, exact: true}
	if r := checkIncrementalFault(); r != "" {
		sess.poison(r)
		return sess
	}
	if len(p.Neqs) != 0 {
		// Disequalities are per-query state by design; a base carrying them
		// would break the exactness argument above.
		sess.poison("incremental: base problem carries disequalities")
		return sess
	}
	st := newState(p)
	sess.baseEqs = cloneEqs(st.eqs)
	sess.baseVars = st.freeHint
	s := &solver{f: p.Field, opts: o}
	if o.Ctx != nil {
		if o.Ctx.Err() != nil {
			sess.poison(Canceled)
			return sess
		}
		s.done = o.Ctx.Done()
	}
	conflict, ok := s.propagate(st)
	sess.baseSteps = s.steps
	sess.observeBaseWork(&o, "smt.incremental.sessions", s.steps)
	if !ok {
		sess.poison(haltReason(s))
		return sess
	}
	sess.conflict = conflict
	sess.base = st
	return sess
}

// Extend grows the base by identifying newly shared signals: for each
// merge, the equation Drop − Keep = 0 joins the base and propagation
// resumes on the diff. Reports whether the session is still usable; on
// false the session is poisoned and callers must rebuild or fall back.
// After a successful Extend the session is no longer exact (see the
// package comment), so callers must not route model-consuming (full)
// queries through it.
func (sess *Session) Extend(merges []VarMerge, opts *Options) bool {
	if sess.poisoned {
		return false
	}
	o := opts.withDefaults()
	sess.exact = false
	if r := checkIncrementalFault(); r != "" {
		sess.poison(r)
		return false
	}
	if sess.conflict {
		// A conflicting base stays conflicting under extra equations.
		return true
	}
	st := sess.base
	for _, mg := range merges {
		lin := poly.Var(sess.f, mg.Drop).Sub(poly.Var(sess.f, mg.Keep))
		sess.baseEqs = append(sess.baseEqs, Equation{
			A: poly.ConstInt(sess.f, 1), B: lin, C: poly.NewLinComb(sess.f),
		})
		// New equations never see older substitutions (addSub only rewrites
		// what is already present), so apply them here.
		red := applySubs(st.subs, lin)
		if red.IsConst() {
			if !red.Constant().IsZero() {
				sess.conflict = true
				return true
			}
			continue // already identified
		}
		st.eqs = append(st.eqs, Equation{
			A: poly.ConstInt(sess.f, 1), B: red, C: poly.NewLinComb(sess.f),
		})
	}
	s := &solver{f: sess.f, opts: o}
	if o.Ctx != nil {
		if o.Ctx.Err() != nil {
			sess.poison(Canceled)
			return false
		}
		s.done = o.Ctx.Done()
	}
	conflict, ok := s.propagate(st)
	sess.baseSteps += s.steps
	sess.observeBaseWork(&o, "smt.incremental.extends", s.steps)
	if !ok {
		sess.poison(haltReason(s))
		return false
	}
	sess.conflict = conflict
	return true
}

// Solve answers one query against the retained base: the disequalities are
// rewritten through the base substitutions and the search continues from
// the base fixpoint. On an exact session the outcome is byte-identical to
// Solve on base ∧ neqs.
func (sess *Session) Solve(neqs []*poly.LinComb, opts *Options) Outcome {
	o := opts.withDefaults()
	var span *obs.Span
	if o.Obs.Enabled() {
		span = o.Obs.Start(o.Parent, "smt.solve",
			obs.KV("eqs", len(sess.baseEqs)), obs.KV("neqs", len(neqs)),
			obs.KV("incremental", true))
	}
	out := sess.solveContinuation(neqs, o)
	if m := o.Metrics; m != nil {
		m.Counter("smt.incremental.reuses").Inc()
	}
	o.observe(span, out)
	return out
}

func (sess *Session) solveContinuation(neqs []*poly.LinComb, o Options) Outcome {
	// A continuation is the entry of an SMT query like any other: the
	// "smt.solve" chaos site must fire here too, or arming it would miss
	// every batch-dispatched query.
	if out, injected := injectSolveFault(); injected {
		return out
	}
	if sess.poisoned {
		return Outcome{Status: StatusUnknown, Reason: "incremental: session poisoned: " + sess.poisonReason, ResourceLimited: true}
	}
	if sess.conflict {
		// The base alone is UNSAT; the from-scratch search would derive the
		// same conflict during propagation (complete never degraded there).
		return Outcome{Status: StatusUnsat}
	}
	if !o.Deadline.IsZero() && !time.Now().Before(o.Deadline) {
		return Outcome{Status: StatusUnknown, Reason: DeadlineExceeded, ResourceLimited: true}
	}
	s := &solver{
		f:    sess.f,
		opts: o,
		rng:  rand.New(rand.NewSource(o.Seed ^ 0x7f4a7c15)),
		// The base consumed baseSteps, of which the final no-action fixpoint
		// pass (1 step) is re-executed by the continuation's first propagate
		// pass; biasing by the difference makes the continuation's budget
		// ledger agree step-for-step with a from-scratch solve.
		stepBias: sess.baseSteps - 1,
	}
	if o.Ctx != nil {
		if o.Ctx.Err() != nil {
			return Outcome{Status: StatusUnknown, Reason: Canceled, ResourceLimited: true}
		}
		s.done = o.Ctx.Done()
	}
	st := sess.base.clone()
	neqVars := map[int]bool{}
	for _, nq := range neqs {
		st.neqs = append(st.neqs, applySubs(st.subs, nq))
		for _, v := range nq.Vars() {
			neqVars[v] = true
		}
	}
	st.freeHint = mergedVars(sess.baseVars, neqVars)
	res, model := s.solve(st, 0)
	return s.outcome(res, model, sess.checkModel(neqs))
}

// Facts returns the root-level eliminations of the current base fixpoint.
// The expressions are shared with the session; LinCombs are immutable, so
// the caller may hold them across later Extends.
func (sess *Session) Facts() []Fact {
	if sess.poisoned || sess.base == nil {
		return nil
	}
	out := make([]Fact, 0, len(sess.base.subs))
	for _, e := range sess.base.subs {
		out = append(out, Fact{Var: e.v, Expr: e.expr})
	}
	return out
}

// Poisoned reports whether the session is unusable; PoisonReason explains.
func (sess *Session) Poisoned() bool { return sess.poisoned }

// PoisonReason returns the poison cause ("" when healthy).
func (sess *Session) PoisonReason() string { return sess.poisonReason }

// Exact reports whether continuations still reproduce from-scratch
// outcomes byte-for-byte (true until the first Extend).
func (sess *Session) Exact() bool { return sess.exact }

// BaseSteps returns the cumulative solver steps spent on base propagation.
func (sess *Session) BaseSteps() int64 { return sess.baseSteps }

func (sess *Session) poison(reason string) {
	sess.poisoned = true
	sess.poisonReason = reason
	sess.base = nil
}

// checkModel verifies a continuation model against the original base
// equations plus this query's disequalities — the same defensive re-check
// solveProblem performs with Problem.Check.
func (sess *Session) checkModel(neqs []*poly.LinComb) func(Model) error {
	return func(m Model) error {
		at := m.Eval
		for i, e := range sess.baseEqs {
			l := sess.f.Mul(e.A.Eval(at), e.B.Eval(at))
			if l != e.C.Eval(at) {
				return fmt.Errorf("smt: base equation %d violated: %s", i, e)
			}
		}
		for i, nq := range neqs {
			if nq.Eval(at).IsZero() {
				return fmt.Errorf("smt: disequality %d violated: %s != 0", i, nq)
			}
		}
		return nil
	}
}

// observeBaseWork folds base propagation into the metrics registry. Base
// steps count as smt.steps (they are real solver work) and additionally
// under smt.incremental.base_steps so the reuse savings stay attributable.
func (sess *Session) observeBaseWork(o *Options, counter string, steps int64) {
	if m := o.Metrics; m != nil {
		m.Counter(counter).Inc()
		m.Counter("smt.steps").Add(steps)
		m.Counter("smt.incremental.base_steps").Add(steps)
	}
}

// haltReason maps a halted propagation to a poison reason.
func haltReason(s *solver) string {
	if s.reason != "" {
		return s.reason
	}
	return "base propagation halted"
}

// applySubs rewrites l through the elimination chain. Substitution
// expressions reference only never-eliminated variables (the addSub
// invariant), so a single forward pass suffices.
func applySubs(subs []subEntry, l *poly.LinComb) *poly.LinComb {
	out := l
	for _, e := range subs {
		out = out.Substitute(e.v, e.expr)
	}
	return out
}

// cloneEqs snapshots an equation list. The copy is shallow: a LinComb is
// immutable once built (poly operations return new values or their
// receiver, never write to an existing one), so sharing them between the
// snapshot and the live state is safe.
func cloneEqs(eqs []Equation) []Equation {
	return append([]Equation(nil), eqs...)
}

// mergedVars unions the sorted base variable list with the disequality
// variables, ascending — reproducing Problem.Vars() of the full query.
func mergedVars(base []int, extra map[int]bool) []int {
	missing := 0
	for v := range extra {
		if !containsSorted(base, v) {
			missing++
		}
	}
	if missing == 0 {
		return base
	}
	out := make([]int, 0, len(base)+missing)
	out = append(out, base...)
	for v := range extra {
		if !containsSorted(base, v) {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func containsSorted(xs []int, v int) bool {
	i := sort.SearchInts(xs, v)
	return i < len(xs) && xs[i] == v
}
