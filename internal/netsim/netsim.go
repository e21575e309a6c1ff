// Package netsim simulates a datacenter network fabric at packet level on
// top of the sim engine: hosts with NIC egress queues, output-queued
// switches with eight strict-priority queues and shared per-port buffers,
// per-packet spraying or per-flow ECMP multipathing, and the switch
// dataplane features the evaluated protocols rely on — ECN marking (DCTCP),
// packet trimming (NDP), priority flow control (HPCC), and in-band network
// telemetry (HPCC).
//
// The fabric is protocol-agnostic: transports implement the Protocol
// interface and exchange packet.Packets through their Host.
package netsim

import (
	"fmt"
	"math/rand"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// Config selects the fabric's dataplane features. The zero value gives
// plain drop-tail priority queues with per-packet spraying and the default
// 500 KB port buffers.
type Config struct {
	// PortBufferBytes is the buffer shared by all priority queues of one
	// switch output port. 0 selects the paper's 500 KB default.
	PortBufferBytes int64
	// ECNThresholdBytes marks Data packets (ECN bit) enqueued while the
	// port holds at least this many bytes. 0 disables marking.
	ECNThresholdBytes int64
	// TrimThresholdBytes trims Data packets to headers instead of
	// dropping when the port holds at least this many bytes (NDP).
	// 0 disables trimming.
	TrimThresholdBytes int64
	// AeolusThresholdBytes drops *unscheduled* Data packets (Unsched set)
	// arriving when the port holds at least this many bytes — Aeolus's
	// selective dropping. 0 disables.
	AeolusThresholdBytes int64
	// EnablePFC turns on hop-by-hop priority flow control with the given
	// per-ingress pause/resume watermarks (bytes buffered at the
	// downstream node attributable to one ingress).
	EnablePFC bool
	PFCPause  int64
	PFCResume int64
	// Spray selects per-packet uniform spraying across equal-cost ports;
	// when false the fabric ECMP-hashes on the flow id.
	Spray bool
	// HostQueueBytes bounds the NIC egress queue. 0 means effectively
	// unbounded (protocols are trusted to pace themselves).
	HostQueueBytes int64
	// RandomLossRate drops each packet (data AND control) at each switch
	// enqueue with this probability — failure injection for protocol
	// robustness tests. 0 disables.
	RandomLossRate float64
	// Audit enables the packet-conservation auditor (see EnableAudit).
	Audit bool
}

// DefaultPortBuffer is the paper's per-port buffer (Table 1).
const DefaultPortBuffer = 500 << 10

// Counters aggregates fabric-wide dataplane statistics. The five drop
// counters are disjoint — every dropped packet increments exactly one of
// them — so they sum to the total loss (the conservation equation the
// auditor checks). Trims and ECNMarks are not drops: a trimmed or marked
// packet is still delivered.
type Counters struct {
	DataDrops      int64 // data lost to drop-tail or random loss at switch ports
	CtrlDrops      int64 // control lost to drop-tail or random loss at switch ports
	Trims          int64
	AeolusDrops    int64 // unscheduled data selectively dropped (Aeolus)
	ECNMarks       int64
	PFCPauses      int64
	PFCResumes     int64
	DeliveredData  int64 // data packets handed to destination protocols
	DeliveredCtrl  int64 // control packets handed to destination protocols
	DeliveredBytes int64 // wire bytes of delivered data packets
	HostDrops      int64 // NIC egress overflow (bounded host queues only)
	FaultDrops     int64 // injected faults: degraded links, loss bursts, reboot drains, dark switches
}

// TotalDrops sums the disjoint drop counters.
func (c *Counters) TotalDrops() int64 {
	return c.DataDrops + c.CtrlDrops + c.AeolusDrops + c.HostDrops + c.FaultDrops
}

// Protocol is a transport running on one host. The fabric calls Start once
// before the simulation begins, OnFlowArrival when the workload hands the
// host a new flow to send, and OnPacket for every packet addressed to the
// host. Implementations schedule their own timers through Host.Engine.
type Protocol interface {
	Start(h *Host)
	OnFlowArrival(f workload.Flow)
	OnPacket(p *packet.Packet)
}

// Fabric is an instantiated network: topology + devices + configuration.
// Its checkpoint (netsim/checkpoint.go) captures the dynamic plane —
// shard counters, port queues, device fault state, protocol state —
// while topology and execution wiring are reconstructed by building the
// same fabric again before Restore.
type Fabric struct {
	eng  *sim.Engine    //ckpt:skip shard 0's engine, captured through shardState
	topo *topo.Topology //ckpt:skip static topology, rebuilt by construction before restore
	cfg  Config         //ckpt:skip construction input, supplied again by the resuming run

	// Sharded execution state (see shard.go). A fabric built with New has
	// one shard whose engine is eng and whose counters alias Counters, so
	// the serial path is unchanged.
	grp       *sim.Group      //ckpt:skip execution wiring, rebuilt by Shard; its counters are captured separately
	part      *topo.Partition //ckpt:skip derived from topology + shard count at construction
	shards    []*shardState
	lookahead sim.Duration //ckpt:skip derived from topology boundary delays at construction

	hosts    []*Host
	switches []*swDev

	// Counters aggregates across shards. Always current single-shard;
	// with several shards it is recomputed at every barrier and when Run
	// returns, so read it between runs, not from inside event callbacks.
	Counters Counters //ckpt:skip aggregate view, recomputed from the captured per-shard counters

	// audit, when non-nil, tracks every packet the fabric owns and flags
	// leaks, double-frees, and counter mismatches (see EnableAudit). It
	// receives events as one of the observers but keeps a direct
	// reference for AuditVerify/AuditErrors.
	audit *auditor //ckpt:skip debugging instrumentation, re-enabled by the resuming run if wanted

	// obs fans packet-lifecycle events out to every registered Observer
	// (tracing, auditing, digests, metrics probes). Empty for
	// uninstrumented runs, which keeps the hot path allocation-free.
	obs []Observer //ckpt:skip observer wiring, re-registered at setup
}

// New builds a single-shard fabric over the topology: everything runs on
// eng and callers drive it with eng.Run as before. Protocols are attached
// afterwards with AttachProtocol (every host must have one before Run).
func New(eng *sim.Engine, t *topo.Topology, cfg Config) *Fabric {
	part, err := topo.MakePartition(t, 1)
	if err != nil {
		panic(err)
	}
	return NewSharded(sim.NewGroup([]*sim.Engine{eng}), t, cfg, part)
}

// NewSharded builds a fabric split across the group's engines according
// to the partition (one engine per shard; every engine must carry the
// same seed, which also seeds the per-device random streams). Drive it
// with Fabric.Run or RunSynced — never a member engine's Run directly —
// and close the group when done. Output is byte-identical to the same
// seed on any other shard count.
func NewSharded(grp *sim.Group, t *topo.Topology, cfg Config, part *topo.Partition) *Fabric {
	if grp.N() != part.NumShards {
		panic(fmt.Sprintf("netsim: %d engines for %d shards", grp.N(), part.NumShards))
	}
	if cfg.PortBufferBytes == 0 {
		cfg.PortBufferBytes = DefaultPortBuffer
	}
	if cfg.HostQueueBytes == 0 {
		cfg.HostQueueBytes = 1 << 40
	}
	if cfg.EnablePFC {
		if cfg.PFCPause == 0 {
			cfg.PFCPause = cfg.PortBufferBytes / 2
		}
		if cfg.PFCResume == 0 {
			cfg.PFCResume = cfg.PFCPause / 2
		}
	}
	f := &Fabric{
		eng: grp.Engine(0), topo: t, cfg: cfg,
		grp: grp, part: part, lookahead: part.Lookahead,
	}
	n := grp.N()
	seed := f.eng.Seed()
	for i := 0; i < n; i++ {
		s := &shardState{id: i, eng: grp.Engine(i)}
		if n == 1 {
			s.counters = &f.Counters
		} else {
			s.counters = new(Counters)
			s.out = make([][]stagedArrival, n)
		}
		f.shards = append(f.shards, s)
	}
	if cfg.Audit {
		f.EnableAudit()
	}

	f.switches = make([]*swDev, len(t.Switches))
	for i, sw := range t.Switches {
		sh := f.shards[part.SwitchShard[i]]
		src := sim.NewCountingSource(deviceSeed(seed, 1, i))
		d := &swDev{
			fab: f, spec: sw, sh: sh,
			src: src, rng: rand.New(src),
		}
		d.ports = make([]*outPort, len(sw.Ports))
		d.ingressBytes = make([]int64, len(sw.Ports)+1)
		for pi, p := range sw.Ports {
			d.ports[pi] = &outPort{
				fab: f, sh: sh, rng: d.rng,
				rate: p.Rate, delay: p.Delay,
				capacity: cfg.PortBufferBytes,
				owner:    d, ownerPort: pi,
			}
		}
		f.switches[i] = d
	}
	f.hosts = make([]*Host, t.NumHosts)
	for h := 0; h < t.NumHosts; h++ {
		up := t.HostLink
		sh := f.shards[part.HostShard[h]]
		src := sim.NewCountingSource(deviceSeed(seed, 2, h))
		host := &Host{
			id: h, fab: f, sh: sh,
			src: src, rng: rand.New(src),
		}
		host.nic = &outPort{
			fab: f, sh: sh, rng: host.rng,
			rate: up.Rate, delay: up.Delay,
			capacity: cfg.HostQueueBytes,
			hostNIC:  host,
		}
		f.hosts[h] = host
	}

	// Wire boundary egress: directed boundary links get stable ids in
	// (switch, port) order, and each boundary port learns its peer so
	// tryTransmit can schedule the fused forward event — intra-shard via
	// its own engine's arrival band, cross-shard via staging.
	var linkID uint64
	for _, sw := range t.Switches {
		for pi, p := range sw.Ports {
			if p.ToHost || !p.Boundary {
				continue
			}
			o := f.switches[sw.ID].ports[pi]
			o.boundary = true
			o.linkID = linkID
			o.peerSw = f.switches[p.Peer]
			o.peerIn = p.PeerPort
			linkID++
		}
	}
	if linkID >= maxBoundaryLinks {
		panic("netsim: too many boundary links for the arrival-band key space")
	}
	return f
}

// Engine returns the event engine driving the fabric.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Topology returns the fabric's topology.
func (f *Fabric) Topology() *topo.Topology { return f.topo }

// Host returns host h.
func (f *Fabric) Host(h int) *Host { return f.hosts[h] }

// AttachProtocol installs p on host h.
func (f *Fabric) AttachProtocol(h int, p Protocol) {
	f.hosts[h].proto = p
}

// Start calls Start on every attached protocol. Must run before events.
func (f *Fabric) Start() {
	for _, h := range f.hosts {
		if h.proto == nil {
			panic(fmt.Sprintf("netsim: host %d has no protocol", h.id))
		}
		h.proto.Start(h)
	}
}

// Inject schedules every flow of the trace as an arrival event at its
// sender, on the sender's shard. Trace order within a shard is preserved,
// so arrivals tie-break identically at every shard count.
//
// The events point into one fabric-owned copy of the flows (so later
// edits to tr cannot reach a scheduled arrival) and run the package-level
// flowArrival, so injecting allocates nothing per flow; an
// arrival-sorted trace flows through each engine's absolute-time lane.
func (f *Fabric) Inject(tr *workload.Trace) {
	flows := make([]workload.Flow, len(tr.Flows))
	copy(flows, tr.Flows)
	for i := range flows {
		fl := &flows[i]
		h := f.hosts[fl.Src]
		h.sh.eng.ScheduleFunc(fl.Arrival, flowArrival, h, fl, 0)
	}
}

// flowArrival is Inject's arrival event: a is the sender's *Host, b the
// *workload.Flow.
func flowArrival(a, b any, _ int) {
	a.(*Host).proto.OnFlowArrival(*b.(*workload.Flow))
}

// Host is one end host: a protocol instance plus a NIC egress queue.
type Host struct {
	id    int                 //ckpt:skip topology identity, re-established by construction
	fab   *Fabric             //ckpt:skip owner back-pointer, re-established by construction
	sh    *shardState         //ckpt:skip shard wiring, re-established by construction
	src   *sim.CountingSource // rng's source, counted for checkpointing
	rng   *rand.Rand          //ckpt:skip rebuilt from the host seed + captured src draws
	proto Protocol
	nic   *outPort
}

// ID returns the host id.
func (h *Host) ID() int { return h.id }

// Engine returns the engine this host's events run on (the shard's
// engine; the fabric-wide engine when single-shard). Protocols must
// schedule all their timers here.
func (h *Host) Engine() *sim.Engine { return h.sh.eng }

// Rng returns the host's private deterministic random stream. Protocols
// must draw here rather than from Engine().Rand(): per-host streams make
// draw sequences independent of cross-host event interleaving, which
// sharded execution requires.
func (h *Host) Rng() *rand.Rand { return h.rng }

// Topo returns the topology (for RTT/BDP math in protocols).
func (h *Host) Topo() *topo.Topology { return h.fab.topo }

// LineRate returns the host's access link rate in bits per second.
func (h *Host) LineRate() float64 { return h.nic.rate }

// NICQueuedBytes returns the bytes currently queued in the NIC, which
// window/pacing protocols use to avoid building local queues.
func (h *Host) NICQueuedBytes() int64 { return h.nic.queuedBytes }

// Send hands a packet to the NIC after the host's stack latency. The
// packet must have Src == h.ID(); the fabric owns it afterwards.
func (h *Host) Send(p *packet.Packet) {
	if p.Src != h.id {
		panic("netsim: packet Src does not match sending host")
	}
	p.SentAt = h.sh.eng.Now()
	for _, o := range h.fab.obs {
		o.PacketInjected(h.id, p)
	}
	h.sh.eng.AfterFunc(h.fab.topo.HostDelay, hostEnqueue, h, p, 0)
}

func hostEnqueue(a, b any, _ int) {
	a.(*Host).nic.enqueue(b.(*packet.Packet))
}

// deliver passes a packet up the receive stack to the protocol.
func (h *Host) deliver(p *packet.Packet) {
	h.sh.eng.AfterFunc(h.fab.topo.HostDelay, hostDeliver, h, p, 0)
}

// hostDeliver is the fabric's delivery point and one of its two packet
// release points: once the protocol's OnPacket returns the packet is
// recycled, unless the protocol claimed it with packet.Keep.
func hostDeliver(a, b any, _ int) {
	h := a.(*Host)
	p := b.(*packet.Packet)
	if p.Kind == packet.Data {
		h.sh.counters.DeliveredData++
		h.sh.counters.DeliveredBytes += int64(p.Size)
	} else {
		h.sh.counters.DeliveredCtrl++
	}
	for _, o := range h.fab.obs {
		o.PacketDelivered(h.id, p)
	}
	h.proto.OnPacket(p)
	packet.ReleaseUnlessKept(p)
}

// swDev is a running switch: per-port output queues plus PFC state.
type swDev struct {
	fab   *Fabric             //ckpt:skip owner back-pointer, re-established by construction
	spec  *topo.Switch        //ckpt:skip static topology, rebuilt by construction
	sh    *shardState         //ckpt:skip shard wiring, re-established by construction
	src   *sim.CountingSource // rng's source, counted for checkpointing
	rng   *rand.Rand          //ckpt:skip rebuilt from the switch seed + captured src draws
	ports []*outPort

	// down marks a rebooting switch: arrivals are discarded (FaultDrops)
	// until RestoreSwitch brings the forwarding plane back.
	down bool

	// ingressBytes tracks, per ingress port, bytes currently buffered in
	// this switch that arrived through that port (PFC accounting). Index
	// len(ports) is used for packets from directly attached hosts, which
	// are never paused collectively — host pause state is per host port.
	ingressBytes []int64
	paused       []bool // lazily sized; whether we've paused each ingress
}

// receive handles a packet arriving at the switch from ingress port `in`
// (-1 for host-attached arrivals; those are accounted per their host
// port). Processing latency is applied before enqueueing.
func (d *swDev) receive(p *packet.Packet, in int) {
	d.sh.eng.AfterFunc(d.fab.topo.SwitchDelay, swForward, d, p, in)
}

func swForward(a, b any, in int) {
	a.(*swDev).forward(b.(*packet.Packet), in)
}

func (d *swDev) forward(p *packet.Packet, in int) {
	if p.Dst < 0 || p.Dst >= d.fab.topo.NumHosts {
		panic("netsim: packet to unknown host")
	}
	if d.down {
		d.sh.counters.FaultDrops++
		d.fab.dropped(p)
		return
	}
	pi, cands := d.spec.Route(p.Dst)
	if pi < 0 {
		// Multipath: spray draws from the device RNG, ECMP hashes flow
		// identity; a resolved down port consumes no randomness in either
		// mode (matching the old single-candidate table rows).
		if d.fab.cfg.Spray {
			pi = cands[d.rng.Intn(len(cands))]
		} else {
			pi = cands[ecmpHash(p.Flow, p.Src, p.Dst)%uint64(len(cands))]
		}
	}
	port := d.ports[pi]
	port.enqueueAt(p, d, in)
}

// ecmpHash mixes flow identity into a path choice (64-bit splitmix).
func ecmpHash(flow uint64, src, dst int) uint64 {
	x := flow*0x9e3779b97f4a7c15 + uint64(src)<<32 + uint64(dst)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MaxPortQueue returns the highest buffer occupancy any switch output
// port reached during the run, in bytes. The paper argues dcPIM bounds
// this near one BDP (token windows admit exactly one RTT of data);
// experiments and tests assert it.
func (f *Fabric) MaxPortQueue() int64 {
	var max int64
	for _, sw := range f.switches {
		for _, p := range sw.ports {
			if p.maxQueued > max {
				max = p.maxQueued
			}
		}
	}
	return max
}
