package core

// Batch dispatch for incremental slice solving.
//
// Sibling queries of one round that share a constraint subset and a
// shared-signal mask are structurally the same base problem — only the
// target ≠ target′ disequality differs. Each round therefore groups its
// tasks by (constraint set, mask), prepares one smt.Session per group (a
// propagated base fixpoint, built fresh, reused verbatim from an earlier
// round, or extended in place when the mask grew), and lets the worker
// pool answer each task as a per-target continuation of the shared state.
//
// Exactness contract (see smt/incremental.go and DESIGN §13): a fresh or
// verbatim-reused session reproduces from-scratch outcomes byte-for-byte,
// so full-circuit queries — whose SAT models become counterexamples — may
// use them. An extended session preserves verdicts but not model bytes, so
// groups containing a full query rebuild instead of extending. Any group
// whose base cannot be prepared (poisoned by the "smt.incremental" chaos
// site, budget-starved, or crashed) falls back to from-scratch solving,
// optionally seeded with replay-safe learned facts (facts.go).
//
// Determinism: groups form sequentially in canonical task order; base
// grants are reserved in that order; base preparation runs in parallel but
// folds its budget/stats effects sequentially at a barrier, exactly like
// query results.

import (
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qed2/internal/obs"
	"qed2/internal/poly"
	"qed2/internal/smt"
	"qed2/internal/uniq"
)

// batchPlan is the per-round decision for one group's base state.
type batchPlan int

const (
	// planFresh builds a new session for this (cons, mask).
	planFresh batchPlan = iota
	// planReuse continues a retained session with an identical mask
	// (byte-exact).
	planReuse
	// planExtend grows a retained session by the mask diff (verdict-exact,
	// non-full tasks only).
	planExtend
)

// batchGroup collects one round's sibling tasks over a common base.
type batchGroup struct {
	consKey string
	mask    string
	sigs    []int
	cons    []int
	tasks   []*queryTask
	hasFull bool

	plan        batchPlan
	sess        *smt.Session
	grant       int64
	stepsBefore int64
	panicked    bool

	// fallback routes the group's tasks to from-scratch solving; reason is
	// recorded on the trace event.
	fallback       bool
	fallbackReason string
}

func (g *batchGroup) markFallback(reason string) {
	g.fallback = true
	g.fallbackReason = reason
}

// usable reports whether tasks may be answered from the group's session.
func (g *batchGroup) usable() bool {
	return !g.fallback && g.sess != nil && !g.sess.Poisoned()
}

// sessionEntry is one retained base state in the cross-round store.
type sessionEntry struct {
	sess *smt.Session
	mask string
}

// baseGrantCap bounds the budget reserved for one group's base
// preparation. Base propagation carries no disequality, so it never
// enumerates — it only runs linear propagation to a fixpoint, which takes
// a handful of steps per equation. Reserving a full QuerySteps grant per
// group would drain the round's remaining pool after a few groups and
// force the rest into fallback; the cap keeps base reservations cheap. If
// a base genuinely needs more it halts, the session is poisoned, and the
// group falls back to from-scratch solving — never an unsoundness.
const baseGrantCap = 4096

// maxSessions caps the cross-round session store: beyond it, new bases are
// still built and used within their round but not retained (their learned
// facts, which are far smaller, still are). The cap is generous — one entry
// per distinct constraint slice — and purely a memory bound.
const maxSessions = 1024

// groupIdent derives the batch identity of a query: the constraint subset
// by content (indices into one system) and the shared-signal mask. Unlike
// sliceKey it deliberately excludes the target, so sibling targets over
// one slice share a group.
func groupIdent(cons, sigs []int, snap *uniq.Snapshot) (consKey, mask string) {
	var b strings.Builder
	b.Grow(len(cons) * 3)
	for _, c := range cons {
		b.WriteString(strconv.Itoa(c))
		b.WriteByte(',')
	}
	var m strings.Builder
	m.Grow(len(sigs))
	for _, v := range sigs {
		if snap.IsUnique(v) {
			m.WriteByte('1')
		} else {
			m.WriteByte('0')
		}
	}
	return b.String(), m.String()
}

// maskGrew reports that new shares strictly more signals than old (masks
// align positionally: equal constraint sets determine equal signal lists).
func maskGrew(old, new string) bool {
	if len(old) != len(new) || old == new {
		return false
	}
	for i := 0; i < len(old); i++ {
		if old[i] == '1' && new[i] == '0' {
			return false
		}
	}
	return true
}

// formGroups partitions the round's pending tasks into batch groups and
// decides each group's plan, reserving base-work grants sequentially in
// canonical order. Returns nil when incremental solving is disabled.
func (a *analysis) formGroups(pending []*queryTask) []*batchGroup {
	if a.cfg.DisableIncremental {
		return nil
	}
	// Tests construct analysis values directly; keep the stores lazy.
	if a.sessions == nil {
		a.sessions = map[string]*sessionEntry{}
	}
	if a.facts == nil {
		a.facts = newFactStore()
	}
	byKey := map[string]*batchGroup{}
	var groups []*batchGroup
	for _, t := range pending {
		if t.groupKey == "" {
			continue
		}
		g := byKey[t.groupKey]
		if g == nil {
			g = &batchGroup{consKey: t.consKey, mask: t.mask, cons: t.cons, sigs: t.sigs}
			byKey[t.groupKey] = g
			groups = append(groups, g)
		}
		g.tasks = append(g.tasks, t)
		if t.full {
			g.hasFull = true
		}
		t.grp = g
	}
	for _, g := range groups {
		entry := a.sessions[g.consKey]
		switch {
		case entry != nil && entry.mask == g.mask && !entry.sess.Poisoned():
			g.plan, g.sess = planReuse, entry.sess
			continue // no base work, no grant
		case entry != nil && !g.hasFull && !entry.sess.Poisoned() && maskGrew(entry.mask, g.mask):
			g.plan, g.sess = planExtend, entry.sess
			g.stepsBefore = entry.sess.BaseSteps()
		default:
			g.plan = planFresh
		}
		want := a.cfg.QuerySteps
		if want > baseGrantCap {
			want = baseGrantCap
		}
		g.grant = a.reserveN(want)
		if g.grant <= 0 {
			g.markFallback(a.exhaustedReason() + " before base preparation")
		}
	}
	return groups
}

// prepareGroups builds/extends the groups' base sessions on a worker pool,
// then folds budget, statistics, the session store and the fact store
// sequentially in canonical group order.
func (a *analysis) prepareGroups(groups []*batchGroup, snap *uniq.Snapshot) {
	var work []*batchGroup
	for _, g := range groups {
		if g.plan != planReuse && !g.fallback {
			work = append(work, g)
		}
	}
	if len(work) > 0 {
		workers := a.cfg.Workers
		if workers > len(work) {
			workers = len(work)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(work) {
						return
					}
					if a.ctx.Err() != nil {
						work[i].markFallback(smt.Canceled)
						continue
					}
					a.prepareGroup(work[i], snap)
				}
			}()
		}
		wg.Wait()
	}
	for _, g := range groups {
		a.accountGroup(g)
	}
}

// prepareGroup performs one group's base work inside a panic boundary: a
// crash during base preparation only ever costs the group its reuse (the
// tasks fall back to from-scratch solving), never the analysis.
func (a *analysis) prepareGroup(g *batchGroup, snap *uniq.Snapshot) {
	defer func() {
		if r := recover(); r != nil {
			g.panicked = true
			a.cfg.Obs.Event(a.span, "core.batch.panic",
				obs.KV("cons", len(g.cons)), obs.KV("panic", fmt.Sprint(r)),
				obs.KV("stack", truncStack(debug.Stack())))
		}
	}()
	if a.ctx.Err() != nil {
		g.markFallback(smt.Canceled)
		return
	}
	if !a.deadline.IsZero() && !time.Now().Before(a.deadline) {
		g.markFallback(smt.DeadlineExceeded)
		return
	}
	opts := &smt.Options{
		MaxSteps: g.grant,
		Seed:     a.cfg.Seed,
		Deadline: a.deadline,
		Ctx:      a.ctx,
		Metrics:  a.cfg.Metrics,
	}
	switch g.plan {
	case planFresh:
		g.sess = smt.NewSession(a.buildBaseProblem(g, snap), opts)
	case planExtend:
		g.sess.Extend(a.maskMerges(g), opts)
	}
}

// buildBaseProblem encodes the target-independent part of the group's
// uniqueness queries: both constraint copies with shared signals
// identified — buildUniquenessProblem minus the per-target disequality.
func (a *analysis) buildBaseProblem(g *batchGroup, snap *uniq.Snapshot) *smt.Problem {
	n := a.sys.NumSignals()
	prime := func(v int) int {
		if snap.IsUnique(v) {
			return v
		}
		return v + n
	}
	p := smt.NewProblem(a.sys.Field())
	for _, ci := range g.cons {
		c := a.sys.Constraint(ci)
		p.AddEq(c.A, c.B, c.C)
		p.AddEq(c.A.RenameVars(prime), c.B.RenameVars(prime), c.C.RenameVars(prime))
	}
	return p
}

// maskMerges lists the variable identifications for an Extend: every slice
// signal shared now but not when the session's mask was recorded.
func (a *analysis) maskMerges(g *batchGroup) []smt.VarMerge {
	entry := a.sessions[g.consKey]
	n := a.sys.NumSignals()
	var merges []smt.VarMerge
	for i, v := range g.sigs {
		if entry.mask[i] == '0' && g.mask[i] == '1' {
			merges = append(merges, smt.VarMerge{Keep: v, Drop: v + n})
		}
	}
	return merges
}

// accountGroup folds one group's base work into budget, stats, counters,
// and the session/fact stores. Runs sequentially in canonical group order.
func (a *analysis) accountGroup(g *batchGroup) {
	if g.plan != planReuse {
		var delta int64
		if g.sess != nil {
			delta = g.sess.BaseSteps() - g.stepsBefore
		}
		a.settle(g.grant, delta)
		a.report.Stats.SolverSteps += delta
		a.report.Stats.IncrementalBaseSteps += delta
		switch {
		case g.panicked:
			// The session may be half-mutated; drop it from the store so it
			// can never answer a later round.
			delete(a.sessions, g.consKey)
			g.markFallback("base preparation panicked")
		case g.fallback:
			// Base work was skipped before it started (budget, deadline,
			// cancellation); any retained session is untouched and still
			// valid for its recorded mask.
		case g.sess == nil || g.sess.Poisoned():
			reason := "base preparation failed"
			if g.sess != nil {
				reason = g.sess.PoisonReason()
			}
			if g.plan == planExtend {
				delete(a.sessions, g.consKey)
			}
			g.markFallback(reason)
		default:
			if g.plan == planExtend {
				a.report.Stats.IncrementalExtends++
			}
			if _, ok := a.sessions[g.consKey]; ok || len(a.sessions) < maxSessions {
				a.sessions[g.consKey] = &sessionEntry{sess: g.sess, mask: g.mask}
			}
			a.report.Stats.LearnedFacts += a.facts.record(g.consKey, g.mask, g.sess.Facts())
		}
	}
	if g.usable() {
		a.report.Stats.BatchGroups++
		a.cBatchGroups.Inc()
		a.cBatchTasks.Add(int64(len(g.tasks)))
	} else {
		a.report.Stats.IncrementalFallbacks++
		a.cIncFallbacks.Inc()
		a.cfg.Obs.Event(a.span, "core.batch.fallback",
			obs.KV("tasks", len(g.tasks)), obs.KV("reason", g.fallbackReason))
	}
}

// solveIncremental answers one task as a continuation of its group's
// session: only the target ≠ target′ disequality is new. The target is
// never shared (shared signals are not queried), so its primed copy is
// always target + n.
func (a *analysis) solveIncremental(g *batchGroup, t *queryTask, o *smt.Options) smt.Outcome {
	f := a.sys.Field()
	neq := poly.Var(f, t.sig).Sub(poly.Var(f, t.sig+a.sys.NumSignals()))
	return g.sess.Solve([]*poly.LinComb{neq}, o)
}
