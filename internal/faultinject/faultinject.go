// Package faultinject is the chaos-engineering substrate of the QED²
// pipeline: named injection points ("sites") scattered through the solver,
// the analysis engine, the front-end and the bench runner, which a test (or
// the QED2_FAULTS environment variable) can arm with forced panics,
// injected solver errors, artificial latency, or early deadline firing.
//
// The package is a no-op unless armed: every site costs one atomic pointer
// load when no plan is active, so the hooks stay compiled into production
// binaries. Firing decisions are deterministic — each rule keeps a per-site
// hit counter, and a seeded hash of (site, hit index) decides probabilistic
// rules — so a chaos run is reproducible given the plan, the seed, and a
// deterministic hit order (workers=1).
//
// Sites currently wired (see DESIGN.md §11 for the taxonomy):
//
//	smt.solve       — entry of every SMT query (panic, latency, error, deadline)
//	smt.step        — solver step loop, checked every few steps (error, deadline, panic)
//	core.query      — per-query worker wrapper in the analysis engine (panic, latency)
//	circom.compile  — front-end entry (panic; exercises the recover boundary)
//	bench.instance  — per-instance bench runner (panic; exercises instance isolation)
//	service.enqueue — qed2d job admission (error/deadline reject as retriable overload)
//	service.store.get — report-store lookup (error/deadline degrade to a cache miss)
//	service.store.put — report-store insert (error/deadline surface as a put failure)
//	service.handler — qed2d HTTP handler entry (panic; exercises the handler recover boundary)
//	worker.kill     — sandbox worker spawn (error/deadline SIGKILLs the child
//	                  mid-analysis; checked in the parent so hit counters
//	                  advance across jobs, applied in the child)
//	worker.hang     — sandbox worker spawn (error/deadline wedges the child
//	                  mid-analysis until the wall-clock watchdog kills it)
//	store.corrupt   — disk-tier entry read (error/deadline flips a byte of
//	                  the file before decoding; exercises checksum
//	                  verification and corrupt-file quarantine)
package faultinject

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Kind is the effect of a rule when it fires.
type Kind string

// Kinds.
const (
	// KindPanic panics at the site (message identifies the site and hit).
	KindPanic Kind = "panic"
	// KindError reports an injected error for the site's error channel —
	// the solver converts it into an Unknown outcome.
	KindError Kind = "error"
	// KindLatency sleeps for the rule's Delay at the site.
	KindLatency Kind = "latency"
	// KindDeadline makes the site behave as if its wall-clock deadline had
	// already fired.
	KindDeadline Kind = "deadline"
)

// Rule arms one site with one effect. Exactly one of Rate and Every selects
// the firing schedule: Rate fires a deterministic pseudo-random fraction of
// hits, Every fires every Nth hit (1-based, so Every=1 fires always).
type Rule struct {
	// Site names the injection point ("smt.solve", "core.query", ...).
	Site string
	// Kind is the effect.
	Kind Kind
	// Rate is the fraction of hits that fire, in [0, 1].
	Rate float64
	// Every fires on hits n with n % Every == 0 (hit counting starts at 1).
	Every int64
	// Delay is the sleep duration for KindLatency rules.
	Delay time.Duration
	// Msg overrides the injected error/panic message.
	Msg string
}

// Fault is what a site check reports back to the caller. The zero value
// means "nothing injected". Panics and latency are performed inside Check
// itself; errors and deadline firing are returned for the site to apply in
// its own failure vocabulary.
type Fault struct {
	// Err is a non-empty injected error message.
	Err string
	// Deadline reports that the site should act as if its deadline passed.
	Deadline bool
}

// Plan is an armed set of rules. A Plan must not be mutated after Enable.
type Plan struct {
	// Seed drives the deterministic firing hash of Rate rules.
	Seed int64
	// Rules lists the armed sites; several rules may share a site.
	Rules []Rule
	// hits counts site checks per rule (allocated by Enable).
	hits []atomic.Int64
}

// active is the armed plan; nil when injection is disabled.
var active atomic.Pointer[Plan]

// Enable arms the plan process-wide. Passing nil disables injection.
func Enable(p *Plan) {
	if p != nil {
		p.hits = make([]atomic.Int64, len(p.Rules))
	}
	active.Store(p)
}

// Disable disarms injection.
func Disable() { active.Store(nil) }

// Enabled reports whether a plan is armed.
func Enabled() bool { return active.Load() != nil }

// Check is the site hook: it looks up the armed plan (fast nil path),
// applies panic and latency effects in place, and returns error/deadline
// effects for the caller. When several rules match the site, panics take
// precedence, then the remaining effects merge (an error message wins over
// an empty one).
func Check(site string) Fault {
	p := active.Load()
	if p == nil {
		return Fault{}
	}
	return p.check(site)
}

func (p *Plan) check(site string) Fault {
	var f Fault
	var sleep time.Duration
	for i := range p.Rules {
		r := &p.Rules[i]
		if r.Site != site {
			continue
		}
		n := p.hits[i].Add(1)
		if !fires(r, p.Seed, n) {
			continue
		}
		switch r.Kind {
		case KindPanic:
			msg := r.Msg
			if msg == "" {
				msg = fmt.Sprintf("faultinject: forced panic at %s (hit %d)", site, n)
			}
			panic(msg)
		case KindError:
			if f.Err == "" {
				f.Err = r.Msg
				if f.Err == "" {
					f.Err = fmt.Sprintf("injected fault at %s", site)
				}
			}
		case KindLatency:
			if r.Delay > sleep {
				sleep = r.Delay
			}
		case KindDeadline:
			f.Deadline = true
		}
	}
	if sleep > 0 {
		time.Sleep(sleep)
	}
	return f
}

// fires decides whether rule r fires on its n-th hit.
func fires(r *Rule, seed, n int64) bool {
	if r.Every > 0 {
		return n%r.Every == 0
	}
	if r.Rate <= 0 {
		return false
	}
	if r.Rate >= 1 {
		return true
	}
	h := splitmix64(uint64(seed) ^ hashString(r.Site) ^ uint64(n)*0x9E3779B97F4A7C15)
	return float64(h>>11)/float64(1<<53) < r.Rate
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-distributed 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hashString is FNV-1a.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Hits returns the number of times each site was checked (not fired) under
// the currently armed plan, keyed by site name. Empty when disabled.
// Intended for tests asserting that a schedule actually exercised a site.
func Hits() map[string]int64 {
	p := active.Load()
	if p == nil {
		return nil
	}
	out := map[string]int64{}
	for i := range p.Rules {
		out[p.Rules[i].Site] += p.hits[i].Load()
	}
	return out
}

// EnvVar is the environment variable EnableFromEnv reads.
const EnvVar = "QED2_FAULTS"

// EnvSeedVar optionally overrides the plan seed for EnableFromEnv.
const EnvSeedVar = "QED2_FAULTS_SEED"

// EnableFromEnv arms a plan parsed from QED2_FAULTS, returning whether one
// was armed. The format is semicolon-separated rules:
//
//	kind@site[:key=value]...
//
// with keys rate (float), every (int), delay (Go duration), msg (string):
//
//	QED2_FAULTS="panic@smt.solve:rate=0.1;latency@core.query:every=3:delay=5ms"
//
// QED2_FAULTS_SEED (integer) sets the deterministic firing seed (default 1).
func EnableFromEnv() (bool, error) {
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return false, nil
	}
	plan, err := ParsePlan(spec)
	if err != nil {
		return false, err
	}
	if s := os.Getenv(EnvSeedVar); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return false, fmt.Errorf("faultinject: bad %s %q: %v", EnvSeedVar, s, err)
		}
		plan.Seed = seed
	}
	Enable(plan)
	return true, nil
}

// ParsePlan parses the QED2_FAULTS rule syntax into a plan with Seed 1.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{Seed: 1}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, r)
	}
	if len(p.Rules) == 0 {
		return nil, fmt.Errorf("faultinject: no rules in %q", spec)
	}
	return p, nil
}

func parseRule(s string) (Rule, error) {
	fields := strings.Split(s, ":")
	kindSite := strings.SplitN(fields[0], "@", 2)
	if len(kindSite) != 2 || kindSite[0] == "" || kindSite[1] == "" {
		return Rule{}, fmt.Errorf("faultinject: rule %q: want kind@site", s)
	}
	r := Rule{Site: kindSite[1]}
	switch Kind(kindSite[0]) {
	case KindPanic, KindError, KindLatency, KindDeadline:
		r.Kind = Kind(kindSite[0])
	default:
		return Rule{}, fmt.Errorf("faultinject: rule %q: unknown kind %q (want %s)", s, kindSite[0], knownKinds())
	}
	for _, kv := range fields[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Rule{}, fmt.Errorf("faultinject: rule %q: malformed option %q (want key=value)", s, kv)
		}
		var err error
		switch key {
		case "rate":
			r.Rate, err = strconv.ParseFloat(val, 64)
			if err == nil && (r.Rate < 0 || r.Rate > 1) {
				err = fmt.Errorf("rate %v outside [0, 1]", r.Rate)
			}
		case "every":
			r.Every, err = strconv.ParseInt(val, 10, 64)
			if err == nil && r.Every <= 0 {
				err = fmt.Errorf("every must be positive, got %d", r.Every)
			}
		case "delay":
			r.Delay, err = time.ParseDuration(val)
		case "msg":
			r.Msg = val
		default:
			err = fmt.Errorf("unknown option %q", key)
		}
		if err != nil {
			return Rule{}, fmt.Errorf("faultinject: rule %q: %v", s, err)
		}
	}
	if r.Rate == 0 && r.Every == 0 {
		return Rule{}, fmt.Errorf("faultinject: rule %q: needs rate= or every=", s)
	}
	if r.Kind == KindLatency && r.Delay <= 0 {
		return Rule{}, fmt.Errorf("faultinject: rule %q: latency needs delay=", s)
	}
	return r, nil
}

func knownKinds() string {
	ks := []string{string(KindPanic), string(KindError), string(KindLatency), string(KindDeadline)}
	sort.Strings(ks)
	return strings.Join(ks, "|")
}
