// Command qed2perf is the qed2 benchmark. One run measures one workload for
// a fixed time and prints a table of metrics, each with its unit and sample
// count, then one JSON result line:
//
//	qed2perf -workload suite|corpus -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics with tracing off; with
// -trace 1 it reports per-layer metrics from a traced run, which also drives
// the analysis service for half the run, and writes the run's spans as JSON
// lines (-trace-out). Every verdict is checked against ground truth; the
// exit status is 1 when any check fails.
//
// Run it from the repository root (it reads testdata/golden_verdicts.json):
//
//	bash qed2perf/run.sh -workload suite -seed 1 -seconds 20 -trace 0
//
// The binary also answers the "worker" subcommand, as qed2d does, so the
// service's sandbox re-executes this binary.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"qed2/internal/service"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(service.WorkerMain(os.Args[2:], os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// opts is one run's configuration.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository root
	exe      string // the binary the sandbox re-executes
	traceOut string
	limit    int // caps the suite and corpus instance lists; 0 = all
}

// setupReps is how many times an untraced run sets its workload up; setup_s
// is the median.
const setupReps = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qed2perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: suite | corpus")
	seed := fs.Int64("seed", 1, "workload seed (1 reproduces the pinned corpus)")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/traces/qed2perf-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: qed2perf -workload suite|corpus -seed N -seconds S -trace 0|1")
		return 2
	}
	exe, err := exePath()
	if err != nil {
		fmt.Fprintln(stderr, "qed2perf:", err)
		return 2
	}
	o := &opts{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, root: ".", exe: exe, traceOut: *traceOut,
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("qed2perf-%s-%d.jsonl", o.workload, o.seed))
	}
	out, err := runWorkload(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "qed2perf:", err)
		return 2
	}
	header := fmt.Sprintf("qed2perf workload=%s seed=%d seconds=%g trace=%d", o.workload, o.seed, *seconds, *trace)
	if err := out.print(stdout, header); err != nil {
		fmt.Fprintln(stderr, "qed2perf:", err)
		return 2
	}
	if out.Failed > 0 {
		return 1
	}
	return 0
}

// runWorkload sets a workload up and measures it. Untraced runs set up
// setupReps times and measure on the last set-up; traced runs set up once.
func runWorkload(ctx context.Context, o *opts) (*outcome, error) {
	out := &outcome{}
	var setup func(*opts) (*batch, error)
	switch o.workload {
	case "suite":
		setup = setupSuite
	case "corpus":
		setup = setupCorpus
	default:
		return nil, fmt.Errorf("unknown workload %q (want suite or corpus)", o.workload)
	}
	if o.trace {
		b, err := setup(o)
		if err != nil {
			return nil, err
		}
		if err := tracedBatch(ctx, b, o, out); err != nil {
			return nil, err
		}
	} else {
		var b *batch
		setupS, err := timeSetup(func() (err error) { b, err = setup(o); return err })
		if err != nil {
			return nil, err
		}
		runBatch(ctx, b, o, out)
		out.Metrics = append(out.Metrics, setupS,
			metric{Name: "peak_rss_mb", Unit: "MiB", Value: peakRSSMiB(), Note: "benchmark process"})
	}
	out.Extra = append(out.Extra, out.failedFrac())
	return out, nil
}

// timeSetup runs setup setupReps times and reports the median duration.
// Each set-up starts from a collected heap, so the previous one's garbage
// neither slows it nor raises the peak resident set by chance.
func timeSetup(setup func() error) (metric, error) {
	var times []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return metric{}, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return metric{Name: "setup_s", Unit: "s", Value: median(times), N: setupReps, Note: "median of set-ups"}, nil
}

func exePath() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("resolving own binary for the sandbox: %v", err)
	}
	return exe, nil
}
