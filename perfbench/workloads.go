package main

import (
	"fmt"

	"dcpim/internal/core"
	"dcpim/internal/metrics"
	"dcpim/internal/netsim"
	"dcpim/internal/protocols/homa"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// spec is one named benchmark workload: a topology, open-loop flow
// traces derived from the seed, the transport, and how the run executes.
// A seed stands for parts independent traces (trace seeds seed·parts+k),
// each simulated in its own process: host times add up over the parts
// and the simulated metrics pool their flows, which evens out the
// heavy-tailed flow sizes more cheaply than one long trace would. In
// each trace flows arrive during [0, arrive); the simulation then runs
// on to horizon so the backlog drains (the repo's own experiments run
// to 1.5× the trace horizon for the same reason).
type spec struct {
	name     string
	parts    int
	protocol string // protocols registry name (fabric configuration)
	shards   int
	queue    sim.QueueDiscipline
	arrive   sim.Duration
	horizon  sim.Duration
	topo     func() *topo.Topology
	trace    func(tp *topo.Topology, arrive sim.Duration, seed int64) *workload.Trace
	attach   func(fab *netsim.Fabric, col *stats.Collector, reg *metrics.Registry) []netsim.Protocol
}

// specs lists every workload in the order the docs describe them.
var specs = []spec{
	{
		name: "paper-leafspine", parts: 4, protocol: "dcpim", shards: 1, queue: sim.QueueHeap,
		arrive: 400 * sim.Microsecond, horizon: 600 * sim.Microsecond,
		topo:   func() *topo.Topology { return topo.DefaultLeafSpine().Build() },
		trace:  allToAll(workload.IMC10(), 0.6),
		attach: attachDcPIM,
	},
	{
		name: "fattree-sharded", parts: 2, protocol: "dcpim", shards: 2, queue: sim.QueueAuto,
		arrive: 90 * sim.Microsecond, horizon: 135 * sim.Microsecond,
		topo:   func() *topo.Topology { return topo.DefaultFatTree().Build() },
		trace:  allToAll(workload.WebSearch(), 0.6),
		attach: attachDcPIM,
	},
	{
		name: "incast-homa", parts: 3, protocol: "homa-aeolus", shards: 1, queue: sim.QueueHeap,
		arrive: 300 * sim.Microsecond, horizon: 450 * sim.Microsecond,
		topo:   func() *topo.Topology { return topo.DefaultLeafSpine().Build() },
		trace:  incastMix,
		attach: attachHomaAeolus,
	},
}

func lookup(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// allToAll is the paper's Poisson all-to-all pattern: every host sends
// to uniformly random peers with sizes from dist at the given load.
func allToAll(dist workload.SizeDist, load float64) func(*topo.Topology, sim.Duration, int64) *workload.Trace {
	return func(tp *topo.Topology, arrive sim.Duration, seed int64) *workload.Trace {
		return workload.AllToAllConfig{
			Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: load,
			Dist: dist, Horizon: arrive, Seed: seed,
		}.Generate()
	}
}

// Incast shape: 50 senders each send 64 KB to one receiver, a new burst
// every incastEvery, receivers rotating over every host.
const (
	incastFanin = 50
	incastBytes = 64 << 10
	incastEvery = 30 * sim.Microsecond
)

// incastMix overlays periodic 50-to-1 incasts on IMC10 background
// traffic at load 0.4.
func incastMix(tp *topo.Topology, arrive sim.Duration, seed int64) *workload.Trace {
	hosts := make([]int, tp.NumHosts)
	for i := range hosts {
		hosts[i] = i
	}
	bg := allToAll(workload.IMC10(), 0.4)(tp, arrive, seed)
	burst := workload.IncastConfig{
		Senders: hosts, Receivers: hosts, Fanin: incastFanin, BurstSize: incastBytes,
		Interval: incastEvery, Start: sim.Time(incastEvery / 2), Horizon: arrive, Seed: seed + 1,
	}.Generate()
	return workload.Merge(bg, burst)
}

// The attach functions do what the protocol's registry descriptor does,
// but hand back every host's protocol so a traced run can wrap it.
func attachDcPIM(fab *netsim.Fabric, col *stats.Collector, reg *metrics.Registry) []netsim.Protocol {
	ps := core.Attach(fab, core.DefaultConfig(), col)
	core.RegisterMetrics(ps, reg)
	out := make([]netsim.Protocol, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}

func attachHomaAeolus(fab *netsim.Fabric, col *stats.Collector, reg *metrics.Registry) []netsim.Protocol {
	ps := homa.Attach(fab, homa.AeolusConfig(), col)
	homa.RegisterMetrics(ps, reg, "homa")
	out := make([]netsim.Protocol, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}
