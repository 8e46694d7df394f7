package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"qed2/internal/bench"
	"qed2/internal/core"
	"qed2/internal/gen"
	"qed2/internal/obs"
	"qed2/internal/service"
	"qed2/internal/store"
)

// The service layers, measured in every traced run: an in-process
// service.Engine with two workers, the memory report store and the sandbox
// runner, fed by an open loop that sends SubmitR1CS text bodies at a fixed
// rate whether or not earlier submissions have finished. The engine is not
// an end-to-end workload of the benchmark: on a shared 2-core host its
// report latency swung by up to 4x between runs as load from outside the
// benchmark came and went.

const (
	// serviceRate is about half the rate at which the engine's backlog
	// starts to grow on a 2-core machine (60/s held p90 near 17 ms; 200/s
	// collapsed).
	serviceRate = 60
	// serviceRepeats is how often each distinct circuit is submitted. With
	// two thirds of submissions answered by the store or an in-flight job,
	// the median lands inside the hit mode instead of between two modes.
	serviceRepeats = 3
	// serviceBlock is how many distinct circuits share one shuffled block of
	// submissions. Shuffling within blocks rather than across the whole run
	// keeps the mix of misses and hits the same in every part of the run,
	// so the load is steady instead of front-loaded with misses.
	serviceBlock = 10
	// spinAhead is how long before a send is due the sender stops sleeping
	// and spins, so that sends leave on time instead of a timer tick late.
	spinAhead      = time.Millisecond
	serviceWorkers = 2
	serviceTenant  = "bench"
	// serviceSeedBase places the generator seeds apart from the corpus's.
	// Like the corpus, workload seed n starts the range at base+n, so runs
	// with nearby seeds share most circuits and differ mainly in order.
	serviceSeedBase = 1 << 20
	// maxWarmup caps how long the loop sends traffic, on circuits of its
	// own, before the measured part starts (two fifths of the measured
	// length). A fresh engine's small heap is collected several times a
	// second under this load, which slows the store-hit path by half for the
	// first seconds; a long-running daemon is past that.
	maxWarmup = 10 * time.Second
	// drainWait bounds how long the loop waits for outstanding reports
	// after its last send.
	drainWait = 60 * time.Second
)

// circuit is one distinct generated circuit the loop submits.
type circuit struct {
	inst    bench.Instance
	body    string
	outputs map[string]bool
}

// svc is a set-up service loop: circuits, submission orders, engine.
type svc struct {
	circuits []circuit
	warmup   []int // circuit index of each warm-up submission
	order    []int // circuit index of each measured submission
	engine   *service.Engine
	metrics  *obs.Metrics
	cfg      core.Config
}

// setupService generates the circuits for the warm-up and for a measured
// loop of the given length, and starts an engine.
func setupService(o *opts, seconds time.Duration) (*svc, error) {
	_, gc, err := loadGolden(filepath.Join(o.root, goldenPath))
	if err != nil {
		return nil, err
	}
	nw := submissions(min(maxWarmup, seconds*2/5))
	n := submissions(seconds)
	s := &svc{cfg: analyzerConfig(gc), metrics: obs.NewMetrics()}
	rng := rand.New(rand.NewSource(o.seed))
	s.warmup = schedule(rng, 0, nw)
	s.order = schedule(rng, distinct(nw), n)
	for seed := serviceSeedBase + o.seed; len(s.circuits) < distinct(nw)+distinct(n); seed++ {
		profile := gen.DefaultMix(seed)
		if profile == gen.ProfileUnknown {
			continue // runs to the deadline: measures the clock, not the service
		}
		spec := gen.Spec{Seed: seed, Profile: profile}
		inst := bench.CorpusInstance(gen.ManifestEntry{Name: spec.Name(), Seed: seed, Profile: profile, Label: profile})
		prog, err := inst.Compile()
		if err != nil {
			return nil, err
		}
		outs := map[string]bool{}
		for _, id := range prog.System.Outputs() {
			outs[prog.System.Name(id)] = true
		}
		s.circuits = append(s.circuits, circuit{inst: inst, body: prog.System.MarshalText(), outputs: outs})
	}
	st, err := store.Open(store.Options{Stamp: service.Stamp(s.cfg), Metrics: s.metrics})
	if err != nil {
		return nil, err
	}
	sb := &service.Sandbox{Binary: o.exe, Wall: 5 * time.Minute, Metrics: s.metrics}
	s.engine = service.New(service.Config{
		Analyzer: s.cfg,
		Workers:  serviceWorkers,
		Store:    st,
		Metrics:  s.metrics,
		Runner:   sb.Run,
	})
	return s, nil
}

// submissions is how many submissions the loop sends in d.
func submissions(d time.Duration) int {
	return max(1, int(math.Round(d.Seconds()*serviceRate)))
}

// distinct is how many circuits n submissions cover.
func distinct(n int) int { return (n + serviceRepeats - 1) / serviceRepeats }

// schedule orders n submissions of the circuits first, first+1, ..., each
// serviceRepeats times, shuffled within blocks of serviceBlock circuits.
func schedule(rng *rand.Rand, first, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = first + i/serviceRepeats
	}
	for lo := 0; lo < n; lo += serviceBlock * serviceRepeats {
		block := order[lo:min(lo+serviceBlock*serviceRepeats, n)]
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	return order
}

// watch follows a job's status events as they are emitted and returns when
// it saw the job start running (zero if it never saw it running) and when it
// saw it terminal (zero if ctx ended first).
func watch(ctx context.Context, j *service.Job) (running, done time.Time) {
	for {
		_, changed := j.EventsSince(math.MaxInt64)
		switch st := j.Status(); {
		case st.Terminal():
			return running, time.Now()
		case st == service.StatusRunning && running.IsZero():
			running = time.Now()
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return running, time.Time{}
		}
	}
}

// submission is one send of the open loop.
type submission struct {
	circuit   int
	due, sent time.Time
	submit    time.Duration
	running   time.Time // when the job was seen running; zero if never
	done      time.Time // zero when the report never arrived
	job       *service.Job
	err       error
}

// loop sends every submission of order at its scheduled time and waits for
// all reports. queueMax is the deepest queue seen at a send.
func (s *svc) loop(ctx context.Context, order []int, rec *recorder) (subs []submission, queueMax int) {
	subs = make([]submission, len(order))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	runtime.GC() // start every run from the same heap state
	t0 := time.Now()
	for i, c := range order {
		sub := &subs[i]
		sub.circuit = c
		sub.due = t0.Add(time.Duration(float64(i) / serviceRate * float64(time.Second)))
		time.Sleep(time.Until(sub.due) - spinAhead)
		for time.Now().Before(sub.due) {
		}
		sub.sent = time.Now()
		send := func() { sub.job, sub.err = s.engine.SubmitR1CS(serviceTenant, s.circuits[c].body) }
		if rec != nil {
			_, sub.submit, _ = rec.call(0, s.circuits[c].inst.Name, "service.SubmitR1CS", send)
		} else {
			send()
			sub.submit = time.Since(sub.sent)
		}
		if q := s.engine.Stats().Queued; q > queueMax {
			queueMax = q
		}
		if sub.err != nil {
			continue
		}
		if sub.job.Status().Terminal() { // answered by the store
			sub.done = time.Now()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub.running, sub.done = watch(ctx, sub.job)
		}()
	}
	waited := make(chan struct{})
	go func() {
		wg.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(drainWait):
		cancel()
		<-waited
	}
	if rec != nil {
		for i := range subs {
			if sub := &subs[i]; !sub.done.IsZero() {
				rec.nextID++
				rec.spans = append(rec.spans, span{ID: rec.nextID, Name: "service.report", Instance: s.circuits[sub.circuit].inst.Name,
					StartUS: sub.due.Sub(rec.t0).Microseconds(), EndUS: sub.done.Sub(rec.t0).Microseconds()})
			}
		}
	}
	return subs, queueMax
}

// judge checks every submission and returns the report latencies, from the
// scheduled send time; a failed or rejected submission counts as +Inf.
func (s *svc) judge(subs []submission, out *outcome) (lat dist) {
	first := map[int]*store.Report{}
	for i := range subs {
		sub := &subs[i]
		c := s.circuits[sub.circuit]
		out.Attempted++
		if err := s.check(sub, c, first); err != nil {
			out.fail("%s (submission %d): %v", c.inst.Name, i, err)
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(sub.done.Sub(sub.due)))
	}
	return lat
}

// check verifies one submission's terminal report against the generator's
// label, the circuit's outputs, and every earlier report on the same
// circuit.
func (s *svc) check(sub *submission, c circuit, first map[int]*store.Report) error {
	switch {
	case sub.err != nil:
		return fmt.Errorf("rejected: %v", sub.err)
	case sub.done.IsZero():
		return fmt.Errorf("no report within %s of the last send", drainWait)
	case sub.job.Status() != service.StatusDone:
		return fmt.Errorf("job ended %s: %s", sub.job.Status(), sub.job.View().Error)
	}
	rep := sub.job.Report()
	if rep == nil || rep.Degraded != "" {
		return fmt.Errorf("degraded or missing report")
	}
	v, ok := core.ParseVerdict(rep.Verdict)
	if !ok {
		return fmt.Errorf("unparsable verdict %q", rep.Verdict)
	}
	if gt := bench.CheckGroundTruth([]bench.Result{{Instance: c.inst, Report: &core.Report{Verdict: v}, CEOutput: rep.CEOutput}}); len(gt.Violations) > 0 {
		return fmt.Errorf("%s", gt.Violations[0])
	}
	if v == core.VerdictUnsafe && (!c.outputs[rep.CEOutput] || rep.CEValues[0] == rep.CEValues[1]) {
		return fmt.Errorf("counterexample on %q with values %v does not name two values of an output", rep.CEOutput, rep.CEValues)
	}
	prev, seen := first[sub.circuit]
	if !seen {
		first[sub.circuit] = rep
		return nil
	}
	if prev.Verdict != rep.Verdict || prev.CEOutput != rep.CEOutput || fmt.Sprint(prev.CESignals) != fmt.Sprint(rep.CESignals) {
		return fmt.Errorf("report (%s on %q) differs from an earlier report on the same circuit (%s on %q)",
			rep.Verdict, rep.CEOutput, prev.Verdict, prev.CEOutput)
	}
	return nil
}

// warm sends the warm-up traffic. Its reports are checked like any others;
// its latencies are not measured.
func (s *svc) warm(ctx context.Context, out *outcome) {
	subs, _ := s.loop(ctx, s.warmup, nil)
	s.judge(subs, out)
}

// mix reports how the engine answered the submissions, warm-up included.
func (s *svc) mix() []metric {
	var ms []metric
	for _, c := range []string{"cached", "deduped", "analyzed"} {
		ms = append(ms, metric{Name: "service.jobs." + c, Unit: "count", Value: float64(s.metrics.Counter("service.jobs." + c).Value())})
	}
	return ms
}

// engineLayers measures the service layers for half the run, after the
// engine's warm-up: report latency from each submission's scheduled send,
// the SubmitR1CS call, queue wait and run time per analyzed job (from its
// first submission's send and the running and terminal status events), the
// queue depth, how late the open loop ran, and the engine's store hit share
// and sandbox runs. Every report is checked.
func engineLayers(ctx context.Context, o *opts, rec *recorder, out *outcome) ([]metric, error) {
	s, err := setupService(o, o.seconds/2)
	if err != nil {
		return nil, err
	}
	defer s.engine.Close()
	s.warm(ctx, out)
	counter := func(name string) float64 { return float64(s.metrics.Counter(name).Value()) }
	hits, misses, spawns := counter("service.store.hits"), counter("service.store.misses"), counter("service.sandbox.spawns")
	subs, queueMax := s.loop(ctx, s.order, rec)
	hits, misses, spawns = counter("service.store.hits")-hits, counter("service.store.misses")-misses, counter("service.sandbox.spawns")-spawns
	lat := s.judge(subs, out)

	var submitUS []float64
	var wait, run dist
	lateMax := 0.0
	jobs := map[*service.Job]bool{}
	for i := range subs {
		sub := &subs[i]
		submitUS = append(submitUS, float64(sub.submit.Nanoseconds())/1e3)
		lateMax = math.Max(lateMax, ms(sub.sent.Sub(sub.due)))
		if sub.job == nil || jobs[sub.job] {
			continue
		}
		jobs[sub.job] = true
		if !sub.running.IsZero() && !sub.done.IsZero() {
			wait = append(wait, ms(sub.running.Sub(sub.sent)))
			run = append(run, ms(sub.done.Sub(sub.running)))
		}
	}
	out.Extra = append(out.Extra, s.mix()...)
	return []metric{
		{Name: "store.hit_frac", Unit: "ratio", Value: ratio(hits, hits+misses), N: int(hits + misses), Note: "engine store"},
		{Name: "sandbox.runs", Unit: "count", Value: spawns, Note: "engine sandbox"},
		pctMetric("service.report_p50_ms", lat, 50),
		pctMetric("service.report_p90_ms", lat, 90),
		{Name: "service.submit_us", Unit: "us", Value: median(submitUS), N: len(submitUS), Note: "median SubmitR1CS call"},
		pctMetric("service.queue_wait_p90_ms", wait, 90),
		pctMetric("service.run_p90_ms", run, 90),
		{Name: "service.queue_max", Unit: "count", Value: float64(queueMax), N: len(subs)},
		{Name: "loadgen.late_max_ms", Unit: "ms", Value: lateMax, N: len(subs)},
	}, nil
}
