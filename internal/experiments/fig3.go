package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

// loadSpec generates an all-to-all trace at the given load on the default
// topology and describes one protocol run over it, with 50% drain time
// past the trace horizon. Sweeps batch these through RunMany.
func loadSpec(o Options, proto string, dist workload.SizeDist, load float64, horizon sim.Duration) RunSpec {
	tp := leafSpineFor(o.Hosts)
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: load,
		Dist: dist, Horizon: horizon, Seed: o.Seed,
	}.Generate()
	return RunSpec{
		Protocol: proto, Topo: tp, Trace: tr,
		Horizon: horizon + horizon/2, Seed: o.Seed + 77, Shards: o.Shards,
	}
}

// loadRun executes loadSpec immediately (single-run call sites).
func loadRun(o Options, proto string, dist workload.SizeDist, load float64, horizon sim.Duration) RunResult {
	return Run(loadSpec(o, proto, dist, load, horizon))
}

// RunFig3a reproduces Figure 3(a): the maximum load each protocol
// sustains on the IMC10 workload over the default leaf-spine, found by
// binary search on offered load (sustained = steady goodput within 6% of
// offered). The paper reports dcPIM ≈ 0.84, Homa Aeolus next, then HPCC,
// then NDP.
func RunFig3a(o Options, w io.Writer) error {
	horizon := o.scaled(2 * sim.Millisecond)
	// The IMC10 tail (flows to ~21 MB) needs tens of milliseconds of
	// warm-up before raw throughput is stationary; for the sustainability
	// search we truncate flow sizes at 1 MB (≈14 BDP — still firmly in
	// matched-long-flow territory) so each probe converges within the
	// horizon. See EXPERIMENTS.md for the substitution note.
	dist := workload.TruncatedDist{Base: workload.IMC10(), Max: 1 << 20}

	fmt.Fprintf(w, "Figure 3(a): max sustainable load, %s, leaf-spine (horizon %v)\n\n", dist.Name(), horizon)
	tbl := newTable("protocol", "max-load", "capped-util@max", "probes")
	// All protocols bisect the same starting interval, so they need the
	// same number of probes and the searches advance in lockstep: each
	// iteration probes every protocol's midpoint as one RunMany batch.
	// Per-protocol trajectories are unchanged from a serial search.
	type search struct {
		lo, hi, utilAt float64
		probes         int
	}
	ss := make([]search, len(Comparators))
	for i := range ss {
		ss[i] = search{lo: 0.40, hi: 0.96}
	}
	for ss[0].hi-ss[0].lo > 0.03 {
		specs := make([]RunSpec, len(Comparators))
		for i, proto := range Comparators {
			load := (ss[i].lo + ss[i].hi) / 2
			specs[i] = loadSpec(o, proto, dist, load, horizon)
			specs[i].Metrics = o.metrics(fmt.Sprintf("fig3a-%s-load%.3f", proto, load))
			specs[i].Checkpoint = o.checkpoint(fmt.Sprintf("fig3a-%s-load%.3f", proto, load))
		}
		for i, res := range RunMany(specs, o.workers()) {
			s := &ss[i]
			mid := (s.lo + s.hi) / 2
			s.probes++
			if sustainsCapped(res) {
				s.lo = mid
				s.utilAt = res.CappedUtilization()
			} else {
				s.hi = mid
			}
		}
	}
	for i, proto := range Comparators {
		tbl.add(proto, ss[i].lo, ss[i].utilAt, ss[i].probes)
	}
	tbl.write(w)
	fmt.Fprintln(w, "\npaper: dcPIM 0.84, Homa Aeolus ~0.8, HPCC/NDP lower")
	return nil
}

// sustainsCapped is the sustainability criterion for the truncated
// workload: delivered bytes within 8% of the physically deliverable
// offered bytes, and ≥95% of flows completed.
func sustainsCapped(res RunResult) bool {
	return res.CappedUtilization() >= 0.92 && res.Completion() >= 0.95
}

// fig3Workloads are the three evaluation workloads.
func fig3Workloads() []workload.SizeDist {
	return []workload.SizeDist{workload.IMC10(), workload.WebSearch(), workload.DataMining()}
}

// RunFig3b reproduces Figure 3(b): mean slowdown across all flows at load
// 0.6 for each workload × protocol.
func RunFig3b(o Options, w io.Writer) error {
	horizon := o.scaled(2 * sim.Millisecond)
	fmt.Fprintf(w, "Figure 3(b): mean slowdown across all flows at load 0.6 (horizon %v)\n\n", horizon)
	tbl := newTable("workload", "protocol", "mean", "p99", "completed")
	dists := fig3Workloads()
	var specs []RunSpec
	for _, dist := range dists {
		for _, proto := range Comparators {
			spec := loadSpec(o, proto, dist, 0.6, horizon)
			spec.Metrics = o.metrics(fmt.Sprintf("fig3b-%s-%s", dist.Name(), proto))
			spec.Checkpoint = o.checkpoint(fmt.Sprintf("fig3b-%s-%s", dist.Name(), proto))
			specs = append(specs, spec)
		}
	}
	results := RunMany(specs, o.workers())
	for di, dist := range dists {
		for pi, proto := range Comparators {
			res := results[di*len(Comparators)+pi]
			s := stats.Summarize(res.Records, nil)
			tbl.add(dist.Name(), proto, s.Mean, s.P99, fmt.Sprintf("%d/%d", res.Col.Completed(), res.Started))
		}
	}
	tbl.write(w)
	fmt.Fprintln(w, "\npaper: dcPIM lowest mean slowdown; Homa Aeolus close; NDP worst")
	return nil
}

// RunFig3cde reproduces Figures 3(c,d,e): mean and 99th-percentile
// slowdown broken down by flow-size bucket, one block per workload. The
// headline numbers: dcPIM short-flow mean 1.03–1.04 and tail 1.09–1.16,
// versus 2.5–2.7 / 3–6.1 for Homa Aeolus, 2.5–4.1 / 12.5–22.3 for NDP,
// and 1.1–1.9 / 2–5.8 for HPCC.
func RunFig3cde(o Options, w io.Writer) error {
	horizon := o.scaled(2 * sim.Millisecond)
	tp := leafSpineFor(o.Hosts)
	buckets := stats.DefaultBuckets(tp.BDP())
	fmt.Fprintf(w, "Figure 3(c-e): slowdown by flow size at load 0.6 (horizon %v)\n", horizon)
	dists := fig3Workloads()
	var specs []RunSpec
	for _, dist := range dists {
		for _, proto := range Comparators {
			specs = append(specs, loadSpec(o, proto, dist, 0.6, horizon))
		}
	}
	results := RunMany(specs, o.workers())
	for di, dist := range dists {
		fmt.Fprintf(w, "\n-- workload %s --\n", dist.Name())
		tbl := newTable(append([]string{"protocol", "metric"}, bucketLabels(buckets)...)...)
		for pi, proto := range Comparators {
			res := results[di*len(Comparators)+pi]
			bs := stats.BucketSlowdowns(res.Records, buckets)
			mean := []any{proto, "mean"}
			tail := []any{proto, "p99"}
			for _, b := range bs {
				mean = append(mean, cell(b.Summary.Count, b.Summary.Mean))
				tail = append(tail, cell(b.Summary.Count, b.Summary.P99))
			}
			tbl.add(mean...)
			tbl.add(tail...)
		}
		tbl.write(w)
	}
	fmt.Fprintln(w, "\npaper: dcPIM short-flow mean 1.03-1.04, p99 1.09-1.16; medium flows pay the matching latency")
	return nil
}

func bucketLabels(bs []stats.SizeBucket) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Label
	}
	return out
}

func cell(count int, v float64) string {
	if count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}
