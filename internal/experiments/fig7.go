package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// RunFig7 reproduces Figure 7, the paper's testbed result: 32 servers on
// a 10 Gbps leaf-spine with software host stacks (~8 µs RTT), all-to-all
// traffic at load 0.5, comparing dcPIM against DCTCP and TCP Cubic. The
// paper reports dcPIM short flows 21–43× better mean slowdown and 34–76×
// better p99 than DCTCP/TCP, with 1.71–2.61× higher long-flow throughput.
// Here the CloudLab testbed is replaced by the simulated testbed topology
// (see DESIGN.md substitutions); the protocol code paths are identical.
func RunFig7(o Options, w io.Writer) error {
	tp := topo.TestbedLeafSpine().Build()
	horizon := o.scaled(40 * sim.Millisecond)
	dist := workload.WebSearch()
	protos := []string{DCPIM, DCTCP, Cubic}

	fmt.Fprintf(w, "Figure 7: 32-host 10G testbed, %s, load 0.5 (horizon %v)\n\n", dist.Name(), horizon)
	buckets := stats.DefaultBuckets(tp.BDP())
	tbl := newTable(append([]string{"protocol", "metric"}, bucketLabels(buckets)...)...)
	type agg struct{ shortMean, shortP99, longMean float64 }
	results := map[string]agg{}
	for _, proto := range protos {
		tr := workload.AllToAllConfig{
			Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.5,
			Dist: dist, Horizon: horizon, Seed: o.Seed,
		}.Generate()
		res := Run(RunSpec{
			Protocol: proto, Topo: tp, Trace: tr,
			Horizon: horizon + horizon/2, Seed: o.Seed + 41, Shards: o.Shards,
			BinWidth: 100 * sim.Microsecond,
		})
		bs := stats.BucketSlowdowns(res.Records, buckets)
		mean := []any{proto, "mean"}
		tail := []any{proto, "p99"}
		for _, b := range bs {
			mean = append(mean, cell(b.Summary.Count, b.Summary.Mean))
			tail = append(tail, cell(b.Summary.Count, b.Summary.P99))
		}
		tbl.add(mean...)
		tbl.add(tail...)
		short := stats.Summarize(res.Records, func(r stats.FlowRecord) bool { return r.Size <= tp.BDP() })
		long := stats.Summarize(res.Records, func(r stats.FlowRecord) bool { return r.Size > 16*tp.BDP() })
		results[proto] = agg{short.Mean, short.P99, long.Mean}
	}
	tbl.write(w)

	d := results[DCPIM]
	fmt.Fprintf(w, "\nshort-flow advantage of dcPIM (paper: 21-43x mean, 34-76x p99):\n")
	for _, proto := range protos[1:] {
		r := results[proto]
		if d.shortMean > 0 && d.shortP99 > 0 {
			fmt.Fprintf(w, "  vs %-6s mean %.1fx, p99 %.1fx; long-flow mean slowdown ratio %.2fx\n",
				proto, r.shortMean/d.shortMean, r.shortP99/d.shortP99, r.longMean/d.longMean)
		}
	}
	return nil
}
