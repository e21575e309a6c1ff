package netsim

import (
	"math/rand"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
)

// queued is one buffered packet plus the ingress port it arrived through
// (for PFC accounting; -1 when not applicable).
type queued struct {
	p  *packet.Packet
	in int
}

// outPort models one transmit side of a full-duplex link: eight
// strict-priority FIFO queues sharing a byte budget, a serializing
// transmitter, and the attached link's rate and propagation delay.
// A port belongs either to a switch (owner set) or to a host NIC.
// A port's checkpoint (outPort.captureState) covers the dynamic plane:
// queues, byte counts, transmitter, PFC/fault state, and the boundary
// arrival sequence. Link parameters and device wiring are static
// topology, re-created identically by building the fabric before
// restore.
type outPort struct {
	fab      *Fabric     //ckpt:skip owner back-pointer, re-established by construction
	sh       *shardState //ckpt:skip shard wiring, re-established by construction
	rng      *rand.Rand  //ckpt:skip aliases the owning device's stream; its position is captured there
	rate     float64     //ckpt:skip static link parameter from topology
	capacity int64       //ckpt:skip static link parameter from topology

	owner *swDev //ckpt:skip device wiring, re-established by construction

	queues      [packet.NumPriorities][]queued
	heads       [packet.NumPriorities]int
	queuedBytes int64
	maxQueued   int64 // high-water mark of queuedBytes
	txBytes     int64 // cumulative bytes transmitted (INT)

	// The transmitter is serializing while the clock is before
	// busyUntil. No event marks the end of a serialization: a wake
	// (portWake) is pending only while a packet waits behind it, so an
	// idle port costs nothing between packets (DESIGN.md §19.2).
	busyUntil   sim.Time
	wakePending bool
	paused      bool

	// Injected fault state (see Fabric's fault-control methods). down
	// halts the transmitter like a PFC pause but is independent of it;
	// lossRate is a persistent degraded-link drop probability; burstRate
	// applies instead while the clock is before burstUntil.
	down       bool
	lossRate   float64
	burstRate  float64
	burstUntil sim.Time

	// Peer wiring: a transmitted packet is handed straight to the ingress
	// handler at the far end of the link, arrive(peer, p, peerIn) — the
	// peer switch's swForward or the peer host's hostDeliver — hop after
	// its serialization ends (propagation plus the peer's processing
	// delay). One event per hop (DESIGN.md §19.1).
	arrive func(a, b any, i int) //ckpt:skip peer wiring, re-established by construction
	peer   any                   //ckpt:skip peer wiring, re-established by construction
	peerIn int                   //ckpt:skip peer wiring, re-established by construction
	peerSh *shardState           //ckpt:skip peer wiring, re-established by construction
	hop    sim.Duration          //ckpt:skip static link parameter from topology

	// Boundary egress (switch↔switch links marked topo.Port.Boundary):
	// the arrival is keyed in the arrival band, built from the directed
	// link id and a per-link sequence, so its execution order is identical
	// at every shard count, and it is staged when the peer is on another
	// shard. Data and PFC frames on the same directed link share arrSeq.
	boundary bool   //ckpt:skip static topology attribute (topo.Port.Boundary)
	linkID   uint64 //ckpt:skip derived from the directed link identity at construction
	arrSeq   uint64
}

// faultDrop applies injected link faults (degrade / loss burst) at enqueue
// time and reports whether the packet was consumed. Faulty links draw from
// the owning device's seeded stream, so runs stay deterministic at any
// shard count; clean links draw nothing.
func (o *outPort) faultDrop(p *packet.Packet) bool {
	r := o.lossRate
	if o.burstRate > r && o.sh.eng.Now() < o.burstUntil {
		r = o.burstRate
	}
	if r <= 0 || o.rng.Float64() >= r {
		return false
	}
	o.sh.counters.FaultDrops++
	o.fab.dropped(p)
	return true
}

// enqueue is the host-NIC entry point: plain drop-tail, no dataplane
// features (a host never trims or marks its own packets).
func (o *outPort) enqueue(p *packet.Packet) {
	if o.faultDrop(p) {
		return
	}
	if o.queuedBytes+int64(p.Size) > o.capacity {
		o.sh.counters.HostDrops++
		o.fab.dropped(p)
		return
	}
	o.push(p, -1)
}

// enqueueAt is the switch entry point, applying Aeolus selective dropping,
// NDP trimming, ECN marking, and drop-tail in that order, then PFC
// accounting for the ingress the packet came through.
func (o *outPort) enqueueAt(p *packet.Packet, sw *swDev, in int) {
	cfg := &o.fab.cfg
	if o.faultDrop(p) {
		return
	}
	if cfg.RandomLossRate > 0 && o.rng.Float64() < cfg.RandomLossRate {
		if p.Kind == packet.Data {
			o.sh.counters.DataDrops++
		} else {
			o.sh.counters.CtrlDrops++
		}
		o.fab.dropped(p)
		return
	}
	isData := p.Kind == packet.Data && !p.Trimmed

	if isData && p.Unsched && cfg.AeolusThresholdBytes > 0 &&
		o.queuedBytes >= cfg.AeolusThresholdBytes {
		o.sh.counters.AeolusDrops++
		o.fab.dropped(p)
		return
	}
	// Trimming applies to regular data only: NDP carries retransmissions
	// in a protected high-priority queue (modeled as PrioShort) precisely
	// so they are not trimmed twice.
	if isData && p.Priority >= packet.PrioDataHigh &&
		cfg.TrimThresholdBytes > 0 && o.queuedBytes >= cfg.TrimThresholdBytes {
		p.Trimmed = true
		p.Size = packet.HeaderSize
		p.Priority = packet.PrioControl
		o.sh.counters.Trims++
		for _, ob := range o.fab.obs {
			ob.PacketTrimmed(p)
		}
		isData = false
	}
	if o.queuedBytes+int64(p.Size) > o.capacity {
		if p.Kind == packet.Data {
			o.sh.counters.DataDrops++
		} else {
			o.sh.counters.CtrlDrops++
		}
		o.fab.dropped(p)
		return
	}
	if isData && cfg.ECNThresholdBytes > 0 && o.queuedBytes >= cfg.ECNThresholdBytes {
		p.ECN = true
		o.sh.counters.ECNMarks++
	}
	o.push(p, in)
	if cfg.EnablePFC && in >= 0 {
		sw.ingressBytes[in] += int64(p.Size)
		sw.checkPause(in)
	}
}

// push appends to the packet's priority queue and kicks the transmitter.
func (o *outPort) push(p *packet.Packet, in int) {
	pr := p.Priority
	if int(pr) >= packet.NumPriorities {
		pr = packet.NumPriorities - 1
	}
	o.queues[pr] = append(o.queues[pr], queued{p, in})
	o.queuedBytes += int64(p.Size)
	if o.queuedBytes > o.maxQueued {
		o.maxQueued = o.queuedBytes
	}
	o.tryTransmit()
}

// pop removes the highest-priority head-of-line packet.
func (o *outPort) pop() (queued, bool) {
	for pr := 0; pr < packet.NumPriorities; pr++ {
		q := o.queues[pr]
		h := o.heads[pr]
		if h >= len(q) {
			continue
		}
		el := q[h]
		q[h] = queued{}
		h++
		switch {
		case h == len(q):
			// Empty: reset to reuse the backing array.
			o.queues[pr] = q[:0]
			h = 0
		case h > 64 && h*2 > len(q):
			// Compact once the dead prefix dominates, amortized O(1).
			n := copy(q, q[h:])
			o.queues[pr] = q[:n]
			h = 0
		}
		o.heads[pr] = h
		o.queuedBytes -= int64(el.p.Size)
		return el, true
	}
	return queued{}, false
}

// tryTransmit starts serializing the next packet if the transmitter is
// free, not PFC-paused, and the link is not administratively down. A
// transmitter still serializing leaves a wake at busyUntil for the
// waiting packet instead, at the absolute instant so the engine's delay
// lanes are not offered a fresh random delay.
func (o *outPort) tryTransmit() {
	if o.paused || o.down {
		return
	}
	eng := o.sh.eng
	now := eng.Now()
	if now < o.busyUntil {
		if !o.wakePending && o.hasQueued() {
			o.wakePending = true
			eng.ScheduleFunc(o.busyUntil, portWake, o, nil, 0)
		}
		return
	}
	el, ok := o.pop()
	if !ok {
		return
	}
	p := el.p

	// Release PFC accounting as soon as the packet leaves the buffer.
	if o.owner != nil && o.fab.cfg.EnablePFC && el.in >= 0 {
		o.owner.ingressBytes[el.in] -= int64(p.Size)
		o.owner.checkResume(el.in)
	}

	tx := sim.TransmissionTime(p.Size, o.rate)
	o.busyUntil = now.Add(tx)
	o.txBytes += int64(p.Size)
	if p.CollectINT {
		p.INT = append(p.INT, packet.INTHop{
			QueueBytes: o.queuedBytes,
			TxBytes:    o.txBytes,
			Timestamp:  now,
			RateBps:    o.rate,
		})
	}
	if !o.wakePending && o.hasQueued() {
		o.wakePending = true
		eng.AfterFunc(tx, portWake, o, nil, 0)
	}
	if o.boundary {
		// Keyed in the arrival band so execution order does not depend
		// on which shard inserted it, or when.
		at := now.Add(tx + o.hop)
		key := bandKey(o.linkID, o.arrSeq)
		o.arrSeq++
		if o.peerSh == o.sh {
			eng.ScheduleArrival(at, key, o.arrive, o.peer, p, o.peerIn)
		} else {
			o.sh.stage(o.peerSh, at, key, o.arrive, o.peer, p, o.peerIn)
		}
		return
	}
	eng.AfterFunc(tx+o.hop, o.arrive, o.peer, p, o.peerIn)
}

// hasQueued reports whether any priority queue holds a packet.
func (o *outPort) hasQueued() bool {
	for pr := range o.queues {
		if o.heads[pr] < len(o.queues[pr]) {
			return true
		}
	}
	return false
}

// portWake ends the serialization a packet waited behind and starts
// the next one.
func portWake(a, _ any, _ int) {
	o := a.(*outPort)
	o.wakePending = false
	o.tryTransmit()
}

// checkPause sends a PFC pause upstream when an ingress's buffered bytes
// cross the pause watermark.
func (d *swDev) checkPause(in int) {
	if d.paused == nil {
		d.paused = make([]bool, len(d.ports))
	}
	if d.paused[in] || d.ingressBytes[in] < d.fab.cfg.PFCPause {
		return
	}
	d.paused[in] = true
	d.sh.counters.PFCPauses++
	d.signalUpstream(in, true)
}

// checkResume lifts the pause once the ingress drains below the resume
// watermark.
func (d *swDev) checkResume(in int) {
	if d.paused == nil || !d.paused[in] || d.ingressBytes[in] > d.fab.cfg.PFCResume {
		return
	}
	d.paused[in] = false
	d.sh.counters.PFCResumes++
	d.signalUpstream(in, false)
}

// signalUpstream delivers a pause/resume to the transmitter feeding
// ingress port in. PFC frames are modeled as link-level control that
// arrives after the propagation delay without queueing. On boundary
// links the frame travels the same directed link as this switch's data
// toward the upstream (our output port in), so it borrows that port's
// arrival-band sequence; on intra-shard links plain scheduling suffices.
func (d *swDev) signalUpstream(in int, pause bool) {
	spec := d.spec.Ports[in]
	i := 0
	if pause {
		i = 1
	}
	if spec.ToHost {
		// Hosts always share their ToR's shard.
		d.sh.eng.AfterFunc(spec.Delay, pfcApply, d.fab.hosts[spec.Peer].nic, nil, i)
		return
	}
	up := d.fab.switches[spec.Peer].ports[spec.PeerPort]
	if !spec.Boundary {
		d.sh.eng.AfterFunc(spec.Delay, pfcApply, up, nil, i)
		return
	}
	rev := d.ports[in] // our transmitter on the same directed link d→peer
	at := d.sh.eng.Now().Add(spec.Delay)
	key := bandKey(rev.linkID, rev.arrSeq)
	rev.arrSeq++
	if peer := up.sh; peer == d.sh {
		d.sh.eng.ScheduleArrival(at, key, pfcApply, up, nil, i)
	} else {
		d.sh.stage(peer, at, key, pfcApply, up, nil, i)
	}
}

// pfcApply lands a PFC frame at the upstream transmitter: i==1 pauses,
// i==0 resumes and kicks the transmitter.
func pfcApply(a, _ any, i int) {
	up := a.(*outPort)
	up.paused = i == 1
	if i == 0 {
		up.tryTransmit()
	}
}

// dropped fans the drop out to the observers, then recycles the
// packet — the fabric's second release point (the first is delivery).
func (f *Fabric) dropped(p *packet.Packet) {
	for _, o := range f.obs {
		o.PacketDropped(p)
	}
	packet.Release(p)
}
