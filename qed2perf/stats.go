package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"syscall"
	"time"
)

// metric is one named number the benchmark prints. N is the number of
// samples behind it (0 when it is a single reading such as a count).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Note  string
}

// minBeyond is the number of samples a reported percentile must have
// beyond it: a tail percentile with fewer is one or two outliers, not a
// property of the distribution.
const minBeyond = 10

// percentileLadder is the set of percentiles the tail rule chooses from.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// percentile returns the nearest-rank p-th percentile of sorted samples and
// the number of samples strictly beyond its rank. It returns NaN for an
// empty sample.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	r := rank(p, n)
	return sorted[r-1], n - r
}

// rank is the 1-based nearest-rank position of the p-th percentile among n
// samples (n > 0).
func rank(p float64, n int) int {
	r := int(math.Ceil(p * float64(n) / 100))
	return max(1, min(r, n))
}

// tailPercentile returns the highest percentile of the ladder that has at
// least minBeyond samples beyond it in a sample of n, and false when not
// even the median qualifies.
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if n > 0 && n-rank(p, n) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// dist is a latency sample in milliseconds. Failed operations are recorded
// as +Inf so that they sort above any limit.
type dist []float64

func (d dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// pctMetric reports the p-th percentile of d. A percentile that lands on a
// failed operation is reported as math.MaxFloat64 ms (JSON has no
// infinity); such a run also reports correct=false.
func pctMetric(name string, d dist, p float64) metric {
	s := d.sorted()
	if len(s) == 0 {
		return metric{Name: name, Unit: "ms", Note: "no samples"}
	}
	v, beyond := percentile(s, p)
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	}
	return metric{Name: name, Unit: "ms", Value: v, N: len(s), Note: fmt.Sprintf("p%g, %d beyond", p, beyond)}
}

// roundMetric is the median over rounds (passes or time windows) of each
// round's p-th percentile: a burst of contention from outside the benchmark
// moves one round, not the result.
func roundMetric(name string, rounds []dist, p float64) metric {
	var vs []float64
	n := 0
	for _, r := range rounds {
		vs = append(vs, pctMetric(name, r, p).Value)
		n += len(r)
	}
	return metric{Name: name, Unit: "ms", Value: median(vs), N: n,
		Note: fmt.Sprintf("median over %d rounds of p%g: %.3f", len(rounds), p, vs)}
}

// tailNote describes the tail percentile the sample size supports, for the
// table printed above the result line.
func tailNote(d dist) string {
	s := d.sorted()
	p, ok := tailPercentile(len(s))
	if !ok {
		return fmt.Sprintf("n=%d: too few samples for any percentile with %d beyond", len(s), minBeyond)
	}
	v, beyond := percentile(s, p)
	return fmt.Sprintf("p%g = %.3f ms (n=%d, %d beyond)", p, v, len(s), beyond)
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// outcome is the result of one benchmark run.
type outcome struct {
	Attempted, Failed int
	Failures          []string
	Drift             []string
	Metrics           []metric // printed in the table and the result line
	Extra             []metric // printed in the table only
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// failedFrac is failed operations over attempted operations.
func (o *outcome) failedFrac() metric {
	return metric{Name: "failed_frac", Unit: "ratio", Value: ratio(float64(o.Failed), float64(o.Attempted)), N: o.Attempted}
}

// maxListed bounds the failure and drift lines printed per run.
const maxListed = 20

// print writes the human-readable table followed by the one-line JSON result
// the harness parses; the JSON object is always the last line.
func (o *outcome) print(w io.Writer, header string) error {
	fmt.Fprintln(w, header)
	fmt.Fprintf(w, "%-28s %14s  %-6s %7s  %s\n", "metric", "value", "unit", "n", "note")
	for _, m := range append(append([]metric(nil), o.Metrics...), o.Extra...) {
		fmt.Fprintf(w, "%-28s %14.4f  %-6s %7d  %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
	}
	for _, l := range []struct {
		what  string
		lines []string
	}{{"failure", o.Failures}, {"drift vs golden", o.Drift}} {
		for i, s := range l.lines {
			if i == maxListed {
				fmt.Fprintf(w, "%s: ... %d more\n", l.what, len(l.lines)-maxListed)
				break
			}
			fmt.Fprintf(w, "%s: %s\n", l.what, s)
		}
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{o.Failed == 0, o.Attempted, o.Failed, map[string]jm{}}
	for _, m := range o.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no finite value", m.Name)
		}
		res.Metrics[m.Name] = jm{m.Value, m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
