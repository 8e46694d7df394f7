package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"qed2/internal/core"
	"qed2/internal/obs"
	"qed2/internal/r1cs"
	"qed2/internal/sa"
	"qed2/internal/service"
	"qed2/internal/store"
	"qed2/internal/uniq"
)

// The traced run. The benchmark records its own span around each call it
// makes into a layer's public entry points, with the allocation count of
// the call, and attaches an obs.Tracer to core so the analyzer's existing
// core.round/core.query/smt.solve/core.final_outputs/core.confirm spans
// split core's time. The standalone sa and uniq calls repeat work core does
// internally: they measure what the layer costs on that input, not a slice
// of core's time. Spans stay in memory until the run ends.

// span is one recorded call. Times are microseconds since the run started.
type span struct {
	ID       int64          `json:"id"`
	Parent   int64          `json:"parent"`
	Name     string         `json:"name"`
	Instance string         `json:"instance"`
	StartUS  int64          `json:"start_us"`
	EndUS    int64          `json:"end_us"`
	Allocs   uint64         `json:"allocs,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

type recorder struct {
	t0     time.Time
	spans  []span
	nextID int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// call runs fn inside a span and returns the span's ID, duration and the
// number of heap allocations made while it ran.
func (r *recorder) call(parent int64, inst, name string, fn func()) (int64, time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	end := time.Now()
	runtime.ReadMemStats(&after)
	r.nextID++
	s := span{
		ID: r.nextID, Parent: parent, Name: name, Instance: inst,
		StartUS: start.Sub(r.t0).Microseconds(), EndUS: end.Sub(r.t0).Microseconds(),
		Allocs: after.Mallocs - before.Mallocs,
	}
	r.spans = append(r.spans, s)
	return s.ID, end.Sub(start), s.Allocs
}

// open reserves a span ID for a span whose children are recorded before it
// ends; close records it.
func (r *recorder) open() (int64, time.Time) {
	r.nextID++
	return r.nextID, time.Now()
}

func (r *recorder) close(id, parent int64, inst, name string, start time.Time) {
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Instance: inst,
		StartUS: start.Sub(r.t0).Microseconds(), EndUS: time.Since(r.t0).Microseconds()})
}

// obsLine is the subset of an obs trace line the benchmark reads.
type obsLine struct {
	Ev     string `json:"ev"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	TUS    int64  `json:"t_us"`
	DurUS  int64  `json:"dur_us"`
	Status string `json:"status"`
	Steps  int64  `json:"steps"`
}

// adopt converts the obs spans core wrote into recorder spans under parent.
// offset is when the obs tracer was created, relative to the run start.
func (r *recorder) adopt(trace []byte, parent int64, inst string, offset time.Duration) ([]obsLine, error) {
	base := r.nextID
	starts := map[int64]obsLine{}
	var ends []obsLine
	sc := bufio.NewScanner(bytes.NewReader(trace))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var l obsLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("reading core trace: %v", err)
		}
		switch l.Ev {
		case "span_start":
			starts[l.ID] = l
		case "span_end":
			ends = append(ends, l)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading core trace: %v", err)
	}
	off := offset.Microseconds()
	for _, e := range ends {
		st, ok := starts[e.ID]
		if !ok {
			return nil, fmt.Errorf("core trace: span %d ends without a start", e.ID)
		}
		p := parent
		if st.Parent != 0 {
			p = base + st.Parent
		}
		s := span{ID: base + e.ID, Parent: p, Name: e.Name, Instance: inst,
			StartUS: off + st.TUS, EndUS: off + e.TUS}
		if e.Name == "smt.solve" {
			s.Attrs = map[string]any{"status": e.Status, "steps": e.Steps}
		}
		r.spans = append(r.spans, s)
		if base+e.ID > r.nextID {
			r.nextID = base + e.ID
		}
	}
	return ends, nil
}

// write saves every span as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.SliceStable(r.spans, func(i, j int) bool { return r.spans[i].StartUS < r.spans[j].StartUS })
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counts are the per-instance work counts that must repeat exactly between
// two traced runs of an instance that finishes before the deadline.
type counts struct {
	Constraints, Findings, Determined, Unique, Queries, Solves int
	Steps                                                      int64
}

// layers accumulates per-layer totals over a set of instances.
type layers struct {
	instances int

	frontMS, frontAllocs, constraints float64

	graphMS, absintMS, verifyMS, saAnalyzeMS, saAllocs float64
	findings, determined, verifyFailed                 float64

	uniqMS, uniqAllocs, unique float64

	coreMS, coreAllocs, queries, solverSteps, finalMS, confirmMS float64

	solves, smtSteps, decisive float64
	solveUS                    []float64
}

// sweep runs one circuit through every layer in turn: front end, then
// sa.BuildGraph → sa.Interpret → AbsState.Verify, sa.Analyze, uniq.New and
// core.AnalyzeContext with an obs tracer attached.
func sweep(ctx context.Context, rec *recorder, inst string, build func() (*r1cs.System, error), cfg core.Config, l *layers) (*r1cs.System, *core.Report, counts, error) {
	var c counts
	root, start := rec.open()
	defer rec.close(root, 0, inst, "instance", start)
	var sys *r1cs.System
	var err error
	_, d, a := rec.call(root, inst, "front", func() { sys, err = build() })
	if err != nil {
		return nil, nil, c, err
	}
	l.frontMS += ms(d)
	l.frontAllocs += float64(a)
	c.Constraints = sys.NumConstraints()

	var g *sa.Graph
	var abs *sa.AbsState
	var verr error
	_, d, a1 := rec.call(root, inst, "sa.BuildGraph", func() { g = sa.BuildGraph(sys) })
	l.graphMS += ms(d)
	_, d, a2 := rec.call(root, inst, "sa.Interpret", func() { abs = sa.Interpret(sys, g) })
	l.absintMS += ms(d)
	_, d, a3 := rec.call(root, inst, "sa.Verify", func() { verr = abs.Verify() })
	l.verifyMS += ms(d)
	if verr != nil {
		l.verifyFailed++
	}
	var res *sa.Result
	_, d, a4 := rec.call(root, inst, "sa.Analyze", func() { res = sa.Analyze(sys, nil) })
	l.saAnalyzeMS += ms(d)
	l.saAllocs += float64(a1 + a2 + a3 + a4)
	c.Findings, c.Determined = len(res.Findings), len(res.DeterminedSignals)

	var p *uniq.Propagator
	_, d, a = rec.call(root, inst, "uniq.New", func() { p = uniq.New(sys) })
	l.uniqMS += ms(d)
	l.uniqAllocs += float64(a)
	c.Unique = p.NumUnique()

	var buf bytes.Buffer
	tr := obs.New(&buf)
	cfg.Obs = tr
	offset := time.Since(rec.t0)
	var rep *core.Report
	coreID, d, a := rec.call(root, inst, "core.AnalyzeContext", func() { rep = core.AnalyzeContext(ctx, sys, &cfg) })
	if err := tr.Flush(); err != nil {
		return nil, nil, c, err
	}
	ends, err := rec.adopt(buf.Bytes(), coreID, inst, offset)
	if err != nil {
		return nil, nil, c, err
	}
	l.instances++
	l.constraints += float64(c.Constraints)
	l.findings += float64(c.Findings)
	l.determined += float64(c.Determined)
	l.unique += float64(c.Unique)
	l.coreMS += ms(d)
	l.coreAllocs += float64(a)
	c.Queries = rep.Stats.Queries
	l.queries += float64(rep.Stats.Queries)
	l.solverSteps += float64(rep.Stats.SolverSteps)
	for _, e := range ends {
		switch e.Name {
		case "smt.solve":
			c.Solves++
			c.Steps += e.Steps
			l.solveUS = append(l.solveUS, float64(e.DurUS))
			if e.Status == "sat" || e.Status == "unsat" {
				l.decisive++
			}
		case "core.final_outputs":
			l.finalMS += float64(e.DurUS) / 1000
		case "core.confirm":
			l.confirmMS += float64(e.DurUS) / 1000
		}
	}
	l.solves += float64(c.Solves)
	l.smtSteps += float64(c.Steps)
	return sys, rep, c, nil
}

// add folds another instance's totals into l.
func (l *layers) add(o *layers) {
	l.instances += o.instances
	l.frontMS += o.frontMS
	l.frontAllocs += o.frontAllocs
	l.constraints += o.constraints
	l.graphMS += o.graphMS
	l.absintMS += o.absintMS
	l.verifyMS += o.verifyMS
	l.saAnalyzeMS += o.saAnalyzeMS
	l.saAllocs += o.saAllocs
	l.findings += o.findings
	l.determined += o.determined
	l.verifyFailed += o.verifyFailed
	l.uniqMS += o.uniqMS
	l.uniqAllocs += o.uniqAllocs
	l.unique += o.unique
	l.coreMS += o.coreMS
	l.coreAllocs += o.coreAllocs
	l.queries += o.queries
	l.solverSteps += o.solverSteps
	l.finalMS += o.finalMS
	l.confirmMS += o.confirmMS
	l.solves += o.solves
	l.smtSteps += o.smtSteps
	l.decisive += o.decisive
	l.solveUS = append(l.solveUS, o.solveUS...)
}

// rows renders the few totals printed for instances kept out of the
// per-layer metrics (those that ran into the deadline).
func (l *layers) rows(prefix string) []metric {
	return []metric{
		{Name: prefix + ".instances", Unit: "count", Value: float64(l.instances)},
		{Name: prefix + ".core_ms", Unit: "ms", Value: l.coreMS},
		{Name: prefix + ".queries", Unit: "count", Value: l.queries},
		{Name: prefix + ".smt_solves", Unit: "count", Value: l.solves},
		{Name: prefix + ".smt_steps", Unit: "count", Value: l.smtSteps},
	}
}

// metrics renders the per-layer metrics of the layers the sweep calls.
func (l *layers) metrics(deadlineBound int) []metric {
	solve := append([]float64(nil), l.solveUS...)
	sort.Float64s(solve)
	p50, _ := percentile(solve, 50)
	p90, b90 := percentile(solve, 90)
	if len(solve) == 0 {
		p50, p90 = 0, 0
	}
	solveMS := 0.0
	for _, us := range solve {
		solveMS += us / 1000
	}
	n := l.instances
	return []metric{
		{Name: "circom.compile_ms", Unit: "ms", Value: l.frontMS, N: n},
		{Name: "circom.allocs", Unit: "count", Value: l.frontAllocs, N: n},
		{Name: "circom.constraints", Unit: "count", Value: l.constraints, N: n},
		{Name: "sa.graph_ms", Unit: "ms", Value: l.graphMS, N: n},
		{Name: "sa.absint_ms", Unit: "ms", Value: l.absintMS, N: n},
		{Name: "sa.verify_ms", Unit: "ms", Value: l.verifyMS, N: n, Note: fmt.Sprintf("%.0f verify errors", l.verifyFailed)},
		{Name: "sa.analyze_ms", Unit: "ms", Value: l.saAnalyzeMS, N: n},
		{Name: "sa.allocs", Unit: "count", Value: l.saAllocs, N: n},
		{Name: "sa.findings", Unit: "count", Value: l.findings, N: n},
		{Name: "sa.determined", Unit: "count", Value: l.determined, N: n},
		{Name: "uniq.propagate_ms", Unit: "ms", Value: l.uniqMS, N: n},
		{Name: "uniq.allocs", Unit: "count", Value: l.uniqAllocs, N: n},
		{Name: "uniq.unique", Unit: "count", Value: l.unique, N: n},
		{Name: "core.analyze_ms", Unit: "ms", Value: l.coreMS, N: n},
		{Name: "core.allocs", Unit: "count", Value: l.coreAllocs, N: n},
		{Name: "core.queries", Unit: "count", Value: l.queries, N: n},
		{Name: "core.solver_steps", Unit: "count", Value: l.solverSteps, N: n},
		{Name: "core.applied_solve_frac", Unit: "ratio", Value: ratio(l.queries, l.solves), N: int(l.solves)},
		{Name: "core.deadline_bound", Unit: "count", Value: float64(deadlineBound)},
		{Name: "core.final_ms", Unit: "ms", Value: l.finalMS, N: n},
		{Name: "core.confirm_ms", Unit: "ms", Value: l.confirmMS, N: n},
		{Name: "smt.solves", Unit: "count", Value: l.solves, N: n},
		{Name: "smt.solve_ms", Unit: "ms", Value: solveMS, N: len(solve)},
		{Name: "smt.solve_p50_us", Unit: "us", Value: p50, N: len(solve)},
		{Name: "smt.solve_p90_us", Unit: "us", Value: p90, N: len(solve), Note: fmt.Sprintf("%d beyond", b90)},
		{Name: "smt.steps", Unit: "count", Value: l.smtSteps, N: len(solve)},
		{Name: "smt.us_per_step", Unit: "us", Value: ratio(solveMS*1000, l.smtSteps), N: len(solve)},
		{Name: "smt.decisive_frac", Unit: "ratio", Value: ratio(l.decisive, l.solves), N: len(solve)},
	}
}

// edges measures the r1cs, store and sandbox entry points on circuits the
// sweep analyzed: r1cs.Parse of the circuit's text form and Digest; a
// scratch memory store's Get of each digest, and Put after a miss; and for a
// sample of circuits, Sandbox.Run against an in-process core.AnalyzeContext
// on the same circuit. The engine's own store and sandbox counts come from
// engineLayers.
type edges struct {
	rec               *recorder
	st                *store.Store
	parseMS, digestMS float64
	getUS, putUS      []float64
	spawnMS           []float64
	circuits          int
}

func newEdges(rec *recorder) (*edges, error) {
	st, err := store.Open(store.Options{})
	if err != nil {
		return nil, err
	}
	return &edges{rec: rec, st: st}, nil
}

// observe measures parse, digest and the store on one analyzed circuit.
func (e *edges) observe(inst string, sys *r1cs.System, rep *core.Report) error {
	text := sys.MarshalText()
	var parsed *r1cs.System
	var err error
	_, d, _ := e.rec.call(0, inst, "r1cs.Parse", func() { parsed, err = r1cs.Parse(strings.NewReader(text)) })
	if err != nil {
		return fmt.Errorf("%s: r1cs.Parse of the circuit's own text: %v", inst, err)
	}
	e.parseMS += ms(d)
	var digest string
	_, d, _ = e.rec.call(0, inst, "r1cs.Digest", func() { digest = parsed.Digest() })
	e.digestMS += ms(d)
	var hit bool
	_, d, _ = e.rec.call(0, inst, "store.Get", func() { _, hit = e.st.Get(digest) })
	e.getUS = append(e.getUS, float64(d.Nanoseconds())/1e3)
	if sr := store.FromCore(rep, sys); !hit && store.Cacheable(sr) {
		_, d, _ = e.rec.call(0, inst, "store.Put", func() { err = e.st.Put(digest, sr) })
		if err != nil {
			return fmt.Errorf("%s: store.Put: %v", inst, err)
		}
		e.putUS = append(e.putUS, float64(d.Nanoseconds())/1e3)
	}
	e.circuits++
	return nil
}

// spawn measures what the sandbox adds to one analysis: Sandbox.Run minus an
// untraced in-process core.AnalyzeContext on the same circuit.
func (e *edges) spawn(ctx context.Context, sb *service.Sandbox, inst string, sys *r1cs.System, cfg core.Config) error {
	var rep *core.Report
	_, inProc, _ := e.rec.call(0, inst, "core.AnalyzeContext", func() { rep = core.AnalyzeContext(ctx, sys, &cfg) })
	var sr *store.Report
	var err error
	_, child, _ := e.rec.call(0, inst, "sandbox.Run", func() { sr, err = sb.Run(ctx, sys, cfg) })
	if err != nil {
		return fmt.Errorf("%s: sandbox.Run: %v", inst, err)
	}
	if sr.Verdict != rep.Verdict.String() {
		return fmt.Errorf("%s: sandboxed verdict %s differs from in-process %s", inst, sr.Verdict, rep.Verdict)
	}
	e.spawnMS = append(e.spawnMS, ms(child-inProc))
	return nil
}

// spawnSample is how many circuits the traced run re-runs in the sandbox.
const spawnSample = 10

func (e *edges) metrics() []metric {
	return []metric{
		{Name: "r1cs.parse_ms", Unit: "ms", Value: e.parseMS, N: e.circuits},
		{Name: "r1cs.digest_ms", Unit: "ms", Value: e.digestMS, N: e.circuits},
		{Name: "store.get_us", Unit: "us", Value: orZero(median(e.getUS)), N: len(e.getUS)},
		{Name: "store.put_us", Unit: "us", Value: orZero(median(e.putUS)), N: len(e.putUS)},
		{Name: "sandbox.spawn_ms", Unit: "ms", Value: orZero(median(e.spawnMS)), N: len(e.spawnMS)},
	}
}

// orZero maps the NaN of an empty sample to 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
