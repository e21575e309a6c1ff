package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"dcpim/internal/stats"
)

// bench runs one workload and seed for a wall-clock budget.
type bench struct {
	spec    spec
	seed    int64
	budget  time.Duration
	workdir string
}

// Fewest rounds a run makes, whatever the budget: medians need a few.
const (
	minRounds = 3 // rounds of untraced simulations of a --trace 0 run
	minPairs  = 2 // untraced + traced pairs of a --trace 1 run
)

// endToEnd repeats rounds of untraced simulations, one per part of the
// seed, for the budget, then makes one traced simulation of part 0 for
// the correctness gate, and reports the end-to-end metrics: host times
// are per-part medians over the rounds, summed over the parts; the
// simulated metrics pool the flows of all parts.
func (b bench) endToEnd(ctx context.Context) (report, error) {
	dir, err := b.scratch()
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	parts := make([][]runResult, b.spec.parts) // parts[k][round]
	var rss []float64
	// A round starts only while it is expected to end within the budget,
	// so a run measures for about --seconds.
	start := time.Now()
	var last time.Duration
	for round := 0; round < minRounds || time.Since(start)+last <= b.budget; round++ {
		t0 := time.Now()
		for k := range parts {
			r, mb, err := b.spawn(ctx, k, false, "")
			if err != nil {
				return report{}, err
			}
			parts[k] = append(parts[k], r)
			rss = append(rss, mb)
		}
		last = time.Since(t0)
	}
	tr, _, err := b.spawn(ctx, 0, true, filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return report{}, err
	}

	rep := newReport(b, endToEnd, parts, tr)
	var runS, setupS float64
	first := make([]runResult, len(parts))
	for k, runs := range parts {
		runS += median(field(runs, func(r runResult) float64 { return r.RunS }))
		setupS += median(field(runs, func(r runResult) float64 { return r.SetupS }))
		first[k] = runs[0]
	}
	rep.set("run_s", runS)
	rep.set("setup_s", setupS)
	rep.set("peak_rss_mb", median(rss))
	k := pool(first)
	rep.set("slowdown_mean", k.slowdownMean)
	rep.set("slowdown_p99", k.slowdownP99)
	rep.set("slowdown_p99_short", k.slowdownP99Short)
	rep.set("goodput_frac", k.goodputFrac)
	rep.set("flows_failed_frac", k.flowsFailedFrac)
	rep.note("%d rounds of %d parts; host times sum per-part medians over the rounds", len(parts[0]), len(parts))
	for _, r := range first {
		runs := parts[r.Part]
		rs := field(runs, func(r runResult) float64 { return r.RunS })
		rep.note("part %d: %d flows, record digest %s, run_s quartiles %.4f %.4f %.4f s",
			r.Part, r.Flows, r.Digest, quartile(rs, 1), quartile(rs, 2), quartile(rs, 3))
	}
	rep.note("flows: %d injected, %d completed by the horizon", k.flows, k.completed)
	return rep, nil
}

// kpis are the simulated end-to-end metrics of a set of parts.
type kpis struct {
	slowdownMean, slowdownP99, slowdownP99Short float64
	goodputFrac, flowsFailedFrac                float64
	flows, completed                            int
}

// pool merges the flows of every part into one set of simulated
// metrics, with the program's own percentile rule.
func pool(parts []runResult) kpis {
	var all, short []float64
	var k kpis
	var delivered, deliverable int64
	for _, r := range parts {
		all = append(all, r.Slowdowns...)
		short = append(short, r.ShortSlowdowns...)
		k.flows += r.Flows
		k.completed += r.Completed
		delivered += r.Delivered
		deliverable += r.Deliverable
	}
	sort.Float64s(all)
	sort.Float64s(short)
	var sum float64
	for _, x := range all {
		sum += x
	}
	k.slowdownMean = ratio(sum, float64(len(all)))
	k.slowdownP99 = stats.Percentile(all, 0.99)
	k.slowdownP99Short = stats.Percentile(short, 0.99)
	k.goodputFrac = ratio(float64(delivered), float64(deliverable))
	k.flowsFailedFrac = ratio(float64(k.flows-k.completed), float64(k.flows))
	return k
}

// traced alternates untraced and traced simulations of part 0 for the
// budget and reports the per-layer split of the traced ones.
func (b bench) traced(ctx context.Context) (report, error) {
	dir, err := b.scratch()
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	var plain, traced []runResult
	var profiles []string
	var last time.Duration
	for start := time.Now(); len(traced) < minPairs || time.Since(start)+last <= b.budget; {
		t0 := time.Now()
		r, _, err := b.spawn(ctx, 0, false, "")
		if err != nil {
			return report{}, err
		}
		prof := filepath.Join(dir, "cpu-"+strconv.Itoa(len(traced))+".pprof")
		t, _, err := b.spawn(ctx, 0, true, prof)
		if err != nil {
			return report{}, err
		}
		plain, traced, profiles = append(plain, r), append(traced, t), append(profiles, prof)
		last = time.Since(t0)
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		return report{}, fmt.Errorf("aggregating CPU profiles: %w", err)
	}
	shares, err := cpuShares(ctx, goBin, profiles)
	if err != nil {
		return report{}, err
	}

	rep := newReport(b, perLayer, [][]runResult{plain}, traced...)
	for _, m := range perLayer {
		if v, ok := shares[m.name]; ok {
			rep.set(m.name, v)
		} else {
			rep.set(m.name, median(field(traced, func(r runResult) float64 { return r.Layer[m.name] })))
		}
	}
	// The event rate comes from the untraced runs, which carry no probes.
	plainSim := median(field(plain, func(r runResult) float64 { return r.SimS }))
	rep.set("sim.ns_per_event", plainSim*1e9/float64(plain[0].Events))
	plainRun := median(field(plain, func(r runResult) float64 { return r.RunS }))
	tracedRun := median(field(traced, func(r runResult) float64 { return r.RunS }))
	rep.set("bench.trace_overhead_frac", tracedRun/plainRun-1)
	rep.note("per-layer values are medians of %d traced runs of part 0; CPU shares aggregate their %d profiles with go tool pprof",
		len(traced), len(profiles))
	return rep, nil
}

// scratch makes a private directory under the work directory.
func (b bench) scratch() (string, error) {
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(b.workdir, b.spec.name+"-")
}

// spawn runs one simulation in a fresh process and returns its result
// and the process's peak resident set in MB.
func (b bench) spawn(ctx context.Context, part int, traced bool, profile string) (runResult, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, 0, err
	}
	args := []string{"-child", "-workload", b.spec.name, "-seed", strconv.FormatInt(b.seed, 10), "-part", strconv.Itoa(part)}
	if traced {
		args = append(args, "-traced", "-cpuprofile", profile)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, 0, fmt.Errorf("simulation process: %w", err)
	}
	var r runResult
	if err := json.Unmarshal(out, &r); err != nil {
		return runResult{}, 0, fmt.Errorf("simulation process output: %w", err)
	}
	var mb float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		mb = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return r, mb, nil
}

// report is one benchmark run's outcome: the JSON summary the last line
// carries, plus notes for the human-readable table above it.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	title string
	defs  []metricDef
	notes []string
	gate  []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newReport applies the correctness gate to every simulation of the run:
// each must pass its own record and audit checks, and all runs of one
// part must agree on the record digest, traced and untraced alike.
// parts[k] holds the untraced runs of part k; traced runs join their
// part's comparison.
func newReport(b bench, defs []metricDef, parts [][]runResult, traced ...runResult) report {
	rep := report{
		title:   fmt.Sprintf("perfbench %s seed %d", b.spec.name, b.seed),
		defs:    defs,
		Metrics: map[string]metricValue{},
	}
	byPart := make([][]runResult, len(parts))
	for k, runs := range parts {
		byPart[k] = append(byPart[k], runs...)
	}
	for _, t := range traced {
		byPart[t.Part] = append(byPart[t.Part], t)
	}
	for _, runs := range byPart {
		for _, r := range runs {
			rep.Attempted++
			if len(r.Errors) > 0 {
				rep.Failed++
				rep.gate = append(rep.gate, r.Errors...)
			}
		}
		if err := sameDigest(runs); err != nil {
			rep.gate = append(rep.gate, err.Error())
		}
	}
	rep.Correct = len(rep.gate) == 0
	return rep
}

func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: metric " + name + " is not in the catalogue")
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable table, then the JSON summary as the
// last line.
func (r report) print(w io.Writer) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s: %d simulations, %d failed the gate\n", r.title, r.Attempted, r.Failed)
	for _, d := range r.defs {
		fmt.Fprintf(&buf, "  %-32s %18.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(&buf, "  # %s\n", n)
	}
	if r.Correct {
		fmt.Fprintln(&buf, "  gate: ok (record digest identical in every run)")
	}
	for _, g := range r.gate {
		fmt.Fprintf(&buf, "  gate FAILED: %s\n", g)
	}
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats and strings: cannot fail
	}
	buf.Write(line)
	buf.WriteByte('\n')
	w.Write(buf.Bytes())
}

func field(rs []runResult, f func(runResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 { return quartile(xs, 2) }

// quartile returns the i-th quartile (1..3) of xs by the method Python's
// statistics.quantiles(xs, n=4) uses by default (exclusive). A single
// value is its own quartile.
func quartile(xs []float64, i int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := n + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}
