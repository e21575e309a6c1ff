package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/faults"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

// faultSpec is loadSpec plus a fault schedule generated at the given
// intensity level. Every protocol at the same level gets the identical
// schedule (same generator seed), so the comparison is apples-to-apples:
// the same links die at the same times under every transport.
func faultSpec(o Options, proto string, level int, horizon sim.Duration) RunSpec {
	tp := leafSpineFor(o.Hosts)
	dist := workload.TruncatedDist{Base: workload.IMC10(), Max: 1 << 20}
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.5,
		Dist: dist, Horizon: horizon, Seed: o.Seed,
	}.Generate()
	spec := RunSpec{
		Protocol: proto, Topo: tp, Trace: tr,
		// Faulted runs need more drain than clean sweeps: recovery
		// timers only fire after links return.
		Horizon: horizon * 3, Seed: o.Seed + 77, Shards: o.Shards,
	}
	if level > 0 {
		spec.Faults = faults.Generate(faults.Intensity(level, o.Seed+int64(level)*1000, horizon), tp)
	}
	return spec
}

// RunFaults measures resilience to structured faults (§3.5 taken beyond
// i.i.d. loss): a grid of fault intensity levels — 0 clean, 1 link flaps,
// 2 plus loss bursts and degraded links, 3 plus a switch reboot and host
// pauses — against the simulation comparator set at load 0.5. Reported
// per cell: completion rate, mean and p99 slowdown of completed flows,
// and packets destroyed by the faults themselves. dcPIM's multi-round
// matching and token-window recovery should hold completion at 100% with
// modest slowdown inflation while loss-sensitive protocols degrade.
func RunFaults(o Options, w io.Writer) error {
	horizon := o.scaled(2 * sim.Millisecond)
	levels := []int{0, 1, 2, 3}
	fmt.Fprintf(w, "Fault resilience: FCT and completion vs fault intensity at load 0.5 (horizon %v)\n", horizon)
	fmt.Fprintf(w, "levels: 0 = clean, 1 = +link flaps, 2 = +loss bursts/degrades, 3 = +reboot/host pauses\n\n")
	var specs []RunSpec
	for _, level := range levels {
		for _, proto := range Comparators {
			spec := faultSpec(o, proto, level, horizon)
			spec.Metrics = o.metrics(fmt.Sprintf("faults-level%d-%s", level, proto))
			spec.Checkpoint = o.checkpoint(fmt.Sprintf("faults-level%d-%s", level, proto))
			specs = append(specs, spec)
		}
	}
	results := RunMany(specs, o.workers())
	tbl := newTable("level", "protocol", "completed", "mean", "p99", "fault-drops")
	for li, level := range levels {
		for pi, proto := range Comparators {
			res := results[li*len(Comparators)+pi]
			s := stats.Summarize(res.Records, nil)
			tbl.add(level, proto,
				fmt.Sprintf("%d/%d", res.Col.Completed(), res.Started),
				s.Mean, s.P99, res.Counters.FaultDrops)
		}
	}
	tbl.write(w)
	fmt.Fprintln(w, "\nexpectation: dcPIM completes every flow at every level; slowdown grows with intensity")
	return nil
}
