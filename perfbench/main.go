// Command perfbench is the simulator's end-to-end benchmark. One run
// simulates a named workload again and again, each time in a fresh
// process, for a fixed wall-clock budget, checks the results, and prints
// every metric by name with its unit; the last line of standard output
// is one JSON object (see BENCHMARK.json for the metric list).
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload paper-leafspine --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload incast-homa --seed 1 --seconds 30 --trace 1
//	bash perfbench/run.sh --steady 10 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
// alternates untraced and traced runs and reports the per-layer split.
// --steady N repeats the whole benchmark for N seeds per workload, each
// in a fresh process, and prints the median, quartiles and spread of
// every metric. README.md describes the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload name: "+workloadNames())
		seed         = flag.Int64("seed", 1, "workload seed")
		seconds      = flag.Float64("seconds", 30, "wall-clock seconds to keep repeating simulations")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
		steady       = flag.Int("steady", 0, "steadiness mode: run the benchmark for this many seeds per workload")
		workdir      = flag.String("workdir", ".bench_build/work", "scratch directory for CPU profiles")
		child        = flag.Bool("child", false, "internal: run one simulation and print its result as JSON")
		part         = flag.Int("part", 0, "internal (with -child): which of the seed's traces to simulate")
		traced       = flag.Bool("traced", false, "internal (with -child): trace the simulation")
		cpuProfile   = flag.String("cpuprofile", "", "internal (with -child -traced): CPU profile path")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fail(2, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 (or --steady N)")
	}

	switch {
	case *child:
		s, err := lookup(*workloadName)
		if err != nil {
			fail(2, "%v", err)
		}
		if *part < 0 || *part >= s.parts {
			fail(2, "%s has parts 0..%d", s.name, s.parts-1)
		}
		res, err := simulate(s, *seed, *part, *traced, *cpuProfile)
		if err != nil {
			fail(1, "%s seed %d: %v", s.name, *seed, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fail(1, "writing result: %v", err)
		}
	case *steady > 0:
		if err := runSteady(*workloadName, *seed, *steady, *seconds, *trace); err != nil {
			fail(1, "%v", err)
		}
	default:
		s, err := lookup(*workloadName)
		if err != nil {
			fail(2, "%v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
		defer cancel()
		b := bench{spec: s, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), workdir: *workdir}
		var rep report
		if *trace == 1 {
			rep, err = b.traced(ctx)
		} else {
			rep, err = b.endToEnd(ctx)
		}
		if err != nil {
			fail(1, "%s seed %d: %v", s.name, *seed, err)
		}
		rep.print(os.Stdout)
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

// runTimeout caps one benchmark run, children included, below the
// 180 s a run may take.
const runTimeout = 170 * time.Second

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(code)
}

func workloadNames() string {
	var out string
	for i, s := range specs {
		if i > 0 {
			out += ", "
		}
		out += s.name
	}
	return out
}
