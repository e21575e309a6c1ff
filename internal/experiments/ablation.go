package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/core"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

// RunAblation isolates two dcPIM design choices beyond the paper's Figure
// 6 sweeps:
//
//   - The FCT-optimizing first round (§3.5): with flow-size information
//     the first matching round picks smallest-remaining-flow; without it
//     (sizes unknown) the round degenerates to uniform random choice.
//     The ablation quantifies what that optimization buys medium flows.
//   - The token window (§3.2): halving or doubling the 1-BDP window
//     trades loss-recovery lag against in-network buffering.
func RunAblation(o Options, w io.Writer) error {
	tp := leafSpineFor(o.Hosts)
	horizon := o.scaled(1 * sim.Millisecond)
	const load = 0.54

	specFor := func(cfg core.Config) RunSpec {
		tr := workload.AllToAllConfig{
			Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: load,
			Dist: workload.WebSearch(), Horizon: horizon, Seed: o.Seed,
		}.Generate()
		c := cfg
		return RunSpec{
			Protocol: DCPIM, Topo: tp, Trace: tr,
			Horizon: horizon + horizon/2, Seed: o.Seed + 61, Shards: o.Shards, DcPIM: &c,
		}
	}
	summarize := func(res RunResult) (short, medium, all stats.Summary) {
		bdp := tp.BDP()
		short = stats.Summarize(res.Records, func(r stats.FlowRecord) bool { return r.Size <= bdp })
		medium = stats.Summarize(res.Records, func(r stats.FlowRecord) bool {
			return r.Size > bdp && r.Size <= 16*bdp
		})
		all = stats.Summarize(res.Records, nil)
		return short, medium, all
	}

	fcts := []bool{true, false}
	fracs := []float64{0.5, 1.0, 2.0}
	var specs []RunSpec
	for _, fct := range fcts {
		cfg := core.DefaultConfig()
		cfg.FCTRound = fct
		specs = append(specs, specFor(cfg))
	}
	bdp := tp.BDP()
	for _, frac := range fracs {
		cfg := core.DefaultConfig()
		cfg.WindowBytes = int64(frac * float64(bdp))
		specs = append(specs, specFor(cfg))
	}
	results := RunMany(specs, o.workers())

	fmt.Fprintf(w, "dcPIM design ablations, WebSearch at load %.2f (horizon %v)\n", load, horizon)

	fmt.Fprintf(w, "\n-- FCT-optimizing round (§3.5): flow sizes known vs unknown --\n")
	tbl := newTable("first-round", "short-mean", "short-p99", "medium-mean", "medium-p99", "all-mean")
	for i, fct := range fcts {
		label := "SRPT (sizes known)"
		if !fct {
			label = "random (sizes unknown)"
		}
		s, m, a := summarize(results[i])
		tbl.add(label, s.Mean, s.P99, m.Mean, m.P99, a.Mean)
	}
	tbl.write(w)

	fmt.Fprintf(w, "\n-- token window (§3.2): fraction of one BDP --\n")
	tbl = newTable("window", "short-mean", "short-p99", "medium-mean", "medium-p99", "all-mean")
	for i, frac := range fracs {
		s, m, a := summarize(results[len(fcts)+i])
		tbl.add(fmt.Sprintf("%.1f BDP", frac), s.Mean, s.P99, m.Mean, m.P99, a.Mean)
	}
	tbl.write(w)

	fmt.Fprintln(w, "\nexpected: the SRPT round mainly helps medium flows; a 1-BDP window is the sweet spot")
	return nil
}
