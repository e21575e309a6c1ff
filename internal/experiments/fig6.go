package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/core"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

// RunFig6 reproduces Figure 6: dcPIM's sensitivity to its three
// parameters — matching rounds r, channels k, and slack β — at load 0.54
// (the highest load sustainable across every combination). One parameter
// varies per sweep; the others stay at the defaults (r=4, k=4, β=1.3).
// The paper's findings: going 1→2 rounds buys 18–24% more sustainable
// load; 2–4 channels are the sweet spot; β has no effect beyond 1.1.
func RunFig6(o Options, w io.Writer) error {
	horizon := o.scaled(1 * sim.Millisecond)
	const load = 0.54
	tp := leafSpineFor(o.Hosts)
	dist := workload.IMC10()

	specFor := func(cfg core.Config) RunSpec {
		tr := workload.AllToAllConfig{
			Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: load,
			Dist: dist, Horizon: horizon, Seed: o.Seed,
		}.Generate()
		c := cfg
		return RunSpec{
			Protocol: DCPIM, Topo: tp, Trace: tr,
			Horizon: horizon + horizon/2, Seed: o.Seed + 31, Shards: o.Shards, DcPIM: &c,
		}
	}
	summarize := func(res RunResult) (util float64, short, all stats.Summary) {
		util = steadyUtilization(res, horizon/2, horizon) / load
		short = stats.Summarize(res.Records, func(r stats.FlowRecord) bool {
			return r.Size <= tp.BDP()
		})
		all = stats.Summarize(res.Records, nil)
		return
	}

	// All three sweeps are independent probes of one parameter each; run
	// them as a single batch and print from the ordered results.
	rounds := []int{1, 2, 4, 6, 8}
	channels := []int{1, 2, 4, 8}
	betas := []float64{1.0, 1.1, 1.3, 2.0, 3.0}
	var specs []RunSpec
	for _, r := range rounds {
		cfg := core.DefaultConfig()
		cfg.Rounds = r
		specs = append(specs, specFor(cfg))
	}
	for _, k := range channels {
		cfg := core.DefaultConfig()
		cfg.Channels = k
		specs = append(specs, specFor(cfg))
	}
	for _, b := range betas {
		cfg := core.DefaultConfig()
		cfg.Beta = b
		specs = append(specs, specFor(cfg))
	}
	results := RunMany(specs, o.workers())

	fmt.Fprintf(w, "Figure 6: dcPIM sensitivity at load %.2f (horizon %v)\n", load, horizon)

	fmt.Fprintf(w, "\n-- rounds r (k=4, β=1.3) --\n")
	tbl := newTable("r", "goodput/offered", "short-mean", "short-p99", "all-mean")
	for i, r := range rounds {
		util, short, all := summarize(results[i])
		tbl.add(r, util, short.Mean, short.P99, all.Mean)
	}
	tbl.write(w)

	fmt.Fprintf(w, "\n-- channels k (r=4, β=1.3) --\n")
	tbl = newTable("k", "goodput/offered", "short-mean", "short-p99", "all-mean")
	for i, k := range channels {
		util, short, all := summarize(results[len(rounds)+i])
		tbl.add(k, util, short.Mean, short.P99, all.Mean)
	}
	tbl.write(w)

	fmt.Fprintf(w, "\n-- slack β (r=4, k=4) --\n")
	tbl = newTable("beta", "goodput/offered", "short-mean", "short-p99", "all-mean")
	for i, b := range betas {
		util, short, all := summarize(results[len(rounds)+len(channels)+i])
		tbl.add(b, util, short.Mean, short.P99, all.Mean)
	}
	tbl.write(w)

	fmt.Fprintln(w, "\npaper: 1→2 rounds has the largest effect; k=2-4 best; β irrelevant beyond 1.1")
	_ = sim.Microsecond
	return nil
}
