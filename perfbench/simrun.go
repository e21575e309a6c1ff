package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dcpim/internal/metrics"
	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/protocols"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// runResult is what one simulation process reports to the parent process.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Part     int    `json:"part"`
	Traced   bool   `json:"traced"`

	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"` // simulation to the horizon plus summarising
	SimS   float64 `json:"sim_s"` // simulation to the horizon alone
	Events uint64  `json:"events"`

	// Simulated outcome, deterministic for a seed and part: the slowdown
	// of every completed flow (and of those of at most one BDP), and the
	// bytes delivered against the bytes deliverable by the horizon.
	Flows          int           `json:"flows"`
	Completed      int           `json:"completed"`
	Slowdowns      []float64     `json:"slowdowns"`
	ShortSlowdowns []float64     `json:"short_slowdowns"`
	Summary        stats.Summary `json:"summary"`
	ShortSummary   stats.Summary `json:"short_summary"`
	Delivered      int64         `json:"delivered"`
	Deliverable    int64         `json:"deliverable"`
	Digest         string        `json:"digest"`

	// Gate failures found inside the run (record checks, audit).
	Errors []string `json:"errors,omitempty"`

	// Layer holds the traced run's per-layer values, by metric name.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// shardClock accumulates host time spent inside protocol callbacks for
// the hosts of one shard. Each shard's events run one at a time, so the
// fields need no synchronisation; the padding puts the counters of two
// shards at least 64 bytes apart, so they never share a cache line.
type shardClock struct {
	onPacket, onArrival time.Duration
	packets             int64
	_                   [64]byte
}

// timedProto wraps one host's protocol and times the fabric's calls into it.
type timedProto struct {
	inner netsim.Protocol
	clk   *shardClock
}

func (t *timedProto) Start(h *netsim.Host) { t.inner.Start(h) }

func (t *timedProto) OnFlowArrival(f workload.Flow) {
	t0 := time.Now()
	t.inner.OnFlowArrival(f)
	t.clk.onArrival += time.Since(t0)
}

func (t *timedProto) OnPacket(p *packet.Packet) {
	t0 := time.Now()
	t.inner.OnPacket(p)
	t.clk.onPacket += time.Since(t0)
	t.clk.packets++
}

// hostLane counts packets delivered to one host. Deliveries to a host run
// on its shard's engine, so per-host lanes need no synchronisation.
type hostLane struct {
	injected, data, ctrl int64
}

// simulate builds one workload from the public packages, runs it to the
// horizon and summarises it. A traced run also wraps every protocol,
// observes deliveries, enables the conservation audit, reads the
// telemetry registry and Go memory statistics, and writes a CPU profile
// of the run phase to cpuProfile.
func simulate(s spec, seed int64, part int, traced bool, cpuProfile string) (runResult, error) {
	res := runResult{Workload: s.name, Seed: seed, Part: part, Traced: traced}
	traceSeed := seed*int64(s.parts) + int64(part)
	layer := map[string]float64{}
	phase := func(name string, t0 time.Time) time.Time {
		now := time.Now()
		layer[name] = now.Sub(t0).Seconds()
		return now
	}

	start := time.Now()
	tp := s.topo()
	t := phase("topo.build_s", start)
	tr := s.trace(tp, s.arrive, traceSeed)
	t = phase("workload.generate_s", t)
	cut, err := topo.MakePartition(tp, s.shards)
	if err != nil {
		return res, fmt.Errorf("partition: %w", err)
	}
	t = phase("topo.partition_s", t)

	q := sim.PickQueue(s.queue, expectedPending(tp.NumHosts, s.shards))
	engines := make([]*sim.Engine, s.shards)
	for i := range engines {
		engines[i] = sim.NewEngineQueue(traceSeed+1, q)
	}
	grp := sim.NewGroup(engines)
	defer grp.Close()
	fc := protocols.MustLookup(s.protocol).FabricConfig()
	fc.Audit = traced
	fab := netsim.NewSharded(grp, tp, fc, cut)
	col := stats.NewCollector(10 * sim.Microsecond)
	var (
		reg   *metrics.Registry
		lanes []hostLane
	)
	if traced {
		reg = metrics.NewRegistry()
		fab.RegisterMetrics(reg)
		lanes = make([]hostLane, tp.NumHosts)
		fab.AddObserver(netsim.ObserverFuncs{
			Injected: func(host int, _ *packet.Packet) { lanes[host].injected++ },
			Delivered: func(host int, p *packet.Packet) {
				if p.Kind.IsControl() {
					lanes[host].ctrl++
				} else {
					lanes[host].data++
				}
			},
		})
	}
	t = phase("netsim.wire_s", t)

	ps := s.attach(fab, col, reg)
	var clocks []shardClock
	if traced {
		clocks = make([]shardClock, s.shards)
		for h, p := range ps {
			fab.AttachProtocol(h, &timedProto{inner: p, clk: &clocks[fab.ShardOfHost(h)]})
		}
	}
	t = phase("protocols.attach_s", t)
	fab.Start()
	fab.Inject(tr)
	t = phase("netsim.inject_s", t)
	res.SetupS = t.Sub(start).Seconds()

	var before runtime.MemStats
	var prof *os.File
	if traced {
		runtime.ReadMemStats(&before)
		if prof, err = os.Create(cpuProfile); err != nil {
			return res, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return res, err
		}
	}

	// Timed region: simulate to the horizon, then summarise the records.
	runStart := time.Now()
	fab.Run(sim.Time(s.horizon))
	simEnd := time.Now()
	recs := col.Records()
	bdp := tp.BDP()
	isShort := func(r stats.FlowRecord) bool { return r.Size <= bdp }
	res.Summary = stats.Summarize(recs, nil)
	res.ShortSummary = stats.Summarize(recs, isShort)
	runEnd := time.Now()

	if traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return res, err
		}
	}
	res.SimS = simEnd.Sub(runStart).Seconds()
	res.RunS = runEnd.Sub(runStart).Seconds()
	layer["stats.summarize_s"] = runEnd.Sub(simEnd).Seconds()

	for _, eng := range engines {
		res.Events += eng.Events()
	}
	res.Flows = len(tr.Flows)
	res.Completed = int(col.Completed())
	res.Slowdowns, res.ShortSlowdowns = slowdowns(recs, nil), slowdowns(recs, isShort)
	res.Delivered = col.DeliveredBytes()
	res.Deliverable = deliverable(tr, tp.HostRate, sim.Time(s.horizon))
	res.Digest = recordDigest(recs)
	var subUnity int
	res.Errors, subUnity = checkRecords(recs, sim.Time(s.horizon), sim.TransmissionTime(packet.MTU, tp.HostRate))

	if traced {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		goLayer(layer, &before, &after, res.Events)
		simLayer(layer, fab, grp, res.Events, res.SimS)
		netsimLayer(layer, fab, lanes)
		protoLayer(layer, clocks, s.protocol)
		registryLayer(layer, reg)
		layer["stats.records"] = float64(len(recs))
		layer["stats.sub_unity_records"] = float64(subUnity)
		layer["workload.flows"] = float64(len(tr.Flows))
		res.Errors = append(res.Errors, auditAtRest(fab, sim.Time(s.horizon), func() int64 {
			var held int64
			for _, l := range lanes {
				held += l.injected - l.data - l.ctrl
			}
			return held - fab.Counters.TotalDrops()
		})...)
		res.Layer = layer
	}
	return res, nil
}

// expectedPending mirrors the experiments package's auto-pick input: the
// measured ≈19 pending events per host, spread over the shards.
func expectedPending(hosts, shards int) int { return 19 * hosts / shards }

// deliverable is the bytes that could have been delivered by end: each
// flow's size capped at line rate times its time in the system.
func deliverable(tr *workload.Trace, rate float64, end sim.Time) int64 {
	var capped int64
	for _, fl := range tr.Flows {
		max := int64(rate / 8 * end.Sub(fl.Arrival).Seconds())
		if max > fl.Size {
			max = fl.Size
		}
		if max > 0 {
			capped += max
		}
	}
	return capped
}

// slowdowns lists the slowdown of every record keep accepts (nil: all).
func slowdowns(recs []stats.FlowRecord, keep func(stats.FlowRecord) bool) []float64 {
	out := []float64{}
	for _, r := range recs {
		if keep == nil || keep(r) {
			out = append(out, r.Slowdown())
		}
	}
	return out
}

func goLayer(layer map[string]float64, before, after *runtime.MemStats, events uint64) {
	ev := float64(events)
	layer["go.alloc_bytes_per_event"] = float64(after.TotalAlloc-before.TotalAlloc) / ev
	layer["go.allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / ev
	layer["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layer["go.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	layer["go.gc_cpu_frac"] = after.GCCPUFraction
}

func simLayer(layer map[string]float64, fab *netsim.Fabric, grp *sim.Group, events uint64, simS float64) {
	layer["sim.events"] = float64(events)
	layer["sim.ns_per_event"] = simS * 1e9 / float64(events)
	epochs := fab.Epochs()
	var dispatched, skipped, staged uint64
	for _, st := range fab.ShardStats() {
		dispatched += st.Dispatched
		skipped += st.Skipped
		staged += st.Staged
	}
	layer["sim.epochs"] = float64(epochs)
	layer["sim.epoch_skipped_frac"] = ratio(float64(skipped), float64(dispatched+skipped))
	layer["sim.barrier_inlined_frac"] = ratio(float64(grp.Inlined()), float64(epochs))
	layer["sim.staged_per_epoch"] = ratio(float64(staged), float64(epochs))
}

func netsimLayer(layer map[string]float64, fab *netsim.Fabric, lanes []hostLane) {
	var data, ctrl int64
	for _, l := range lanes {
		data += l.data
		ctrl += l.ctrl
	}
	c := &fab.Counters
	drops := float64(c.TotalDrops())
	layer["netsim.packets_delivered"] = float64(data + ctrl)
	layer["netsim.ctrl_frac"] = ratio(float64(ctrl), float64(data+ctrl))
	layer["netsim.drop_frac"] = ratio(drops, drops+float64(c.DeliveredData+c.DeliveredCtrl))
	layer["netsim.drops"] = drops
	layer["netsim.trims"] = float64(c.Trims)
	layer["netsim.pfc_pauses"] = float64(c.PFCPauses)
	layer["netsim.max_port_queue_kb"] = float64(fab.MaxPortQueue()) / 1024
}

// protoLayer reports the protocol wrappers' counts and times under the
// transport's own layer name; the other transport's entries read zero.
func protoLayer(layer map[string]float64, clocks []shardClock, protocol string) {
	var c shardClock
	for _, sc := range clocks {
		c.onPacket += sc.onPacket
		c.onArrival += sc.onArrival
		c.packets += sc.packets
	}
	ran, idle := "core", "homa"
	if protocol != "dcpim" {
		ran, idle = idle, ran
	}
	layer[ran+".on_packet_calls"] = float64(c.packets)
	layer[ran+".on_packet_s"] = c.onPacket.Seconds()
	layer[ran+".on_flow_arrival_s"] = c.onArrival.Seconds()
	for _, m := range []string{".on_packet_calls", ".on_packet_s", ".on_flow_arrival_s"} {
		layer[idle+m] = 0
	}
}

func registryLayer(layer map[string]float64, reg *metrics.Registry) {
	v := map[string]float64{}
	var accepted float64
	for _, nv := range reg.CounterValues() {
		v[nv.Name] = float64(nv.Value)
		if strings.HasPrefix(nv.Name, "core/match/round") {
			accepted += float64(nv.Value)
		}
	}
	layer["core.tokens_issued"] = v["core/tokens_issued"]
	layer["core.token_revert_frac"] = ratio(v["core/tokens_reverted"], v["core/tokens_issued"])
	layer["core.unsched_byte_frac"] = ratio(v["core/unsched_bytes"], v["core/unsched_bytes"]+v["core/sched_bytes"])
	layer["core.match.round0_accept_frac"] = ratio(v["core/match/round0_accepted_channels"], accepted)
	layer["homa.grants"] = v["homa/grants"]
	layer["homa.unsched_byte_frac"] = ratio(v["homa/unsched_bytes"], v["homa/sent_bytes"])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
