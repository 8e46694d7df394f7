package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"qed2/internal/bench"
	"qed2/internal/core"
	"qed2/internal/gen"
	"qed2/internal/r1cs"
	"qed2/internal/service"
)

// The closed-loop workloads, suite and corpus: one client analyzes one
// instance at a time, compile or generate plus analysis, and starts the next
// only when the verdict is in.

// batch is a set-up closed-loop workload.
type batch struct {
	insts []bench.Instance
	gold  golden
	cfg   core.Config
}

// goldenPath is the checked-in golden verdict file, relative to the
// repository root.
const goldenPath = "testdata/golden_verdicts.json"

// analyzerConfig is the golden file's analyzer configuration run the way the
// paper's evaluation runs it: one query worker and a 5 s timeout per
// instance.
func analyzerConfig(gc bench.GoldenConfig) core.Config {
	return core.Config{
		QuerySteps:  gc.QuerySteps,
		GlobalSteps: gc.GlobalSteps,
		Seed:        gc.Seed,
		Timeout:     5 * time.Second,
		Workers:     1,
	}
}

// setupSuite loads the paper's 163 Circom circuits in a seeded order and
// compiles each once, so that every instance is known to compile and the
// front end is warm before timing starts.
func setupSuite(o *opts) (*batch, error) {
	gold, gc, err := loadGolden(filepath.Join(o.root, goldenPath))
	if err != nil {
		return nil, err
	}
	insts := bench.Suite()
	if o.limit > 0 && o.limit < len(insts) {
		insts = insts[:o.limit]
	}
	rand.New(rand.NewSource(o.seed)).Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
	for _, inst := range insts {
		if _, err := inst.Compile(); err != nil {
			return nil, fmt.Errorf("compiling %s: %v", inst.Name, err)
		}
	}
	return &batch{insts: insts, gold: gold, cfg: analyzerConfig(gc)}, nil
}

// corpusSize is the number of generator seeds a corpus run draws from; the
// unknown-profile entries among them are left out (see BENCHMARK.json).
const corpusSize = 1000

// setupCorpus builds the generator manifest for the seed and keeps its safe-
// and unsafe-labelled entries. Seed 1 reproduces the pinned corpus manifest.
func setupCorpus(o *opts) (*batch, error) {
	gold, gc, err := loadGolden(filepath.Join(o.root, goldenPath))
	if err != nil {
		return nil, err
	}
	m, err := gen.BuildManifest(o.seed, corpusSize)
	if err != nil {
		return nil, err
	}
	var insts []bench.Instance
	for _, e := range m.Instances {
		if e.Label == gen.ProfileUnknown {
			continue
		}
		insts = append(insts, bench.CorpusInstance(e))
	}
	if o.limit > 0 && o.limit < len(insts) {
		insts = insts[:o.limit]
	}
	return &batch{insts: insts, gold: gold, cfg: analyzerConfig(gc)}, nil
}

// front is the instance's compile (suite) or generate (corpus) step.
func front(inst bench.Instance) func() (*r1cs.System, error) {
	return func() (*r1cs.System, error) {
		prog, err := inst.Compile()
		if err != nil {
			return nil, err
		}
		return prog.System, nil
	}
}

// verdictOf checks one instance's result and folds it into the outcome; it
// reports whether the verdict is definite.
func (b *batch) verdictOf(out *outcome, inst bench.Instance, sys *r1cs.System, rep *core.Report, err error) bool {
	out.Attempted++
	if err != nil {
		out.fail("%s: front end: %v", inst.Name, err)
		return false
	}
	if err := checkInstance(inst, sys, rep); err != nil {
		out.fail("%v", err)
		return false
	}
	drift, err := b.gold.compare(inst.Name, rep.Verdict.String())
	if err != nil {
		out.fail("%v", err)
		return false
	}
	if drift != "" {
		out.Drift = append(out.Drift, drift)
	}
	return definite(rep.Verdict.String())
}

// timeInstance compiles or generates one instance and analyzes it, and
// returns how long that took. Each instance starts from a collected heap, so
// its time includes its own garbage collection and not its predecessors'.
func (b *batch) timeInstance(ctx context.Context, inst bench.Instance) (*r1cs.System, *core.Report, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	sys, err := front(inst)()
	var rep *core.Report
	if err == nil {
		rep = core.AnalyzeContext(ctx, sys, &b.cfg)
	}
	return sys, rep, time.Since(t0), err
}

const (
	// instanceRuns is how many times, back to back, an instance that
	// finishes in under repeatBelow is analyzed; its verdict time is the
	// median. Near the suite's p90 a few instances sit 10-20% apart, and
	// single runs swapped their order from run to run.
	instanceRuns = 3
	repeatBelow  = time.Second
)

// runBatch measures whole passes over the instances until the run has lasted
// o.seconds (at least one pass). A pass's wall time runs from the first
// instance started to the last verdict, counting each instance at its
// verdict time and leaving out the benchmark's own work between instances.
// Every metric is a median over passes; decided counts first runs.
func runBatch(ctx context.Context, b *batch, o *opts, out *outcome) {
	var walls, decided []float64
	var passes []dist
	var all dist
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < o.seconds; pass++ {
		var lat dist
		wall, n := 0.0, 0
		for _, inst := range b.insts {
			var times []float64
			for run := 0; run < instanceRuns; run++ {
				sys, rep, d, err := b.timeInstance(ctx, inst)
				times = append(times, ms(d))
				if b.verdictOf(out, inst, sys, rep, err) && run == 0 {
					n++
				}
				if err != nil || d >= repeatBelow {
					break
				}
			}
			t := median(times)
			wall += t / 1000
			lat = append(lat, t)
		}
		walls = append(walls, wall)
		decided = append(decided, float64(n))
		passes = append(passes, lat)
		all = append(all, lat...)
	}
	out.Metrics = append(out.Metrics,
		metric{Name: "wall_s", Unit: "s", Value: median(walls), N: len(walls), Note: fmt.Sprintf("median over passes %.3f", walls)},
		roundMetric("verdict_p50_ms", passes, 50),
		roundMetric("verdict_p90_ms", passes, 90),
		metric{Name: "decided", Unit: "count", Value: median(decided), N: len(b.insts), Note: fmt.Sprintf("median over passes %.0f", decided)},
	)
	out.Extra = append(out.Extra, metric{Name: "verdict_tail", Unit: "ms", N: len(all), Note: tailNote(all)})
}

// tracedBatch is the per-layer run: traced pass A over every instance, an
// untraced pass and traced pass B over the instances that finished before
// the deadline in A. Per-layer metrics come from A; B must repeat A's counts
// exactly on instances that finished before the deadline both times; the
// ratio of B's to the untraced pass's compile-plus-analysis time is the
// tracing overhead.
func tracedBatch(ctx context.Context, b *batch, o *opts, out *outcome) error {
	rec := newRecorder()
	ed, err := newEdges(rec)
	if err != nil {
		return err
	}
	sb := &service.Sandbox{Binary: o.exe, Wall: time.Minute}
	deadlineBound := func(rep *core.Report) bool { return rep.Stats.Duration >= b.cfg.Timeout }

	var l, late layers
	countsA := map[string]counts{}
	var fast []bench.Instance
	for _, inst := range b.insts {
		var scratch layers
		runtime.GC()
		sys, rep, c, err := sweep(ctx, rec, inst.Name, front(inst), b.cfg, &scratch)
		b.verdictOf(out, inst, sys, rep, err)
		if err != nil {
			continue
		}
		if deadlineBound(rep) {
			late.add(&scratch)
			continue
		}
		l.add(&scratch)
		countsA[inst.Name] = c
		fast = append(fast, inst)
		if err := ed.observe(inst.Name, sys, rep); err != nil {
			out.fail("%v", err)
		}
		if len(ed.spawnMS) < spawnSample && scratch.coreMS < 200 {
			if err := ed.spawn(ctx, sb, inst.Name, sys, b.cfg); err != nil {
				out.fail("%v", err)
			}
		}
	}

	var untraced, traced time.Duration
	for _, inst := range fast {
		_, _, d, _ := b.timeInstance(ctx, inst)
		untraced += d
	}
	compared, mismatches := 0, 0
	for _, inst := range fast {
		var scratch layers
		runtime.GC()
		sys, rep, c, err := sweep(ctx, rec, inst.Name, front(inst), b.cfg, &scratch)
		b.verdictOf(out, inst, sys, rep, err)
		if err != nil {
			continue
		}
		traced += time.Duration((scratch.frontMS + scratch.coreMS) * float64(time.Millisecond))
		if deadlineBound(rep) {
			continue
		}
		compared++
		if a := countsA[inst.Name]; a != c {
			mismatches++
			out.fail("%s: counts differ between two traced runs: %+v then %+v", inst.Name, a, c)
		}
	}

	engine, err := engineLayers(ctx, o, rec, out)
	if err != nil {
		return err
	}
	out.Metrics = append(out.Metrics, l.metrics(late.instances)...)
	out.Metrics = append(out.Metrics, ed.metrics()...)
	out.Metrics = append(out.Metrics, engine...)
	out.Metrics = append(out.Metrics, metric{Name: "trace.overhead_frac", Unit: "ratio",
		Value: ratio(traced.Seconds(), untraced.Seconds()), N: len(fast), Note: "traced ÷ untraced front end + core"})
	out.Extra = append(out.Extra, late.rows("deadline_bound")...)
	out.Extra = append(out.Extra, metric{Name: "repeat.mismatches", Unit: "count", Value: float64(mismatches), N: compared})
	return rec.write(o.traceOut)
}
