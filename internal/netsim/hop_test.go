package netsim

import (
	"testing"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
)

// The hop contract (DESIGN.md §19): a packet costs one engine event per
// device it enters, and a transmitter costs a wake event only while a
// packet waits behind its current serialization. These tests count
// engine events directly, so a relay or an idle-port event that creeps
// back into the hop path fails them.

// TestOneEventPerHop sends one packet across an idle leaf-spine
// (host→leaf→spine→leaf→host): hostEnqueue, three swForward events and
// hostDeliver, and nothing else — serially, and split so that every
// switch↔switch link crosses shards.
func TestOneEventPerHop(t *testing.T) {
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	f.Host(0).Send(packet.NewData(0, 7, 1, 0, packet.MTU, packet.PrioShort))
	f.Engine().RunAll()
	if len(sinks[7].received) != 1 {
		t.Fatalf("received %d packets, want 1", len(sinks[7].received))
	}
	if n := f.Engine().Events(); n != 5 {
		t.Fatalf("serial: one cross-rack packet ran %d events, want 5", n)
	}

	tp := topo.SmallLeafSpine().Build()
	part, err := topo.MakePartition(tp, 4)
	if err != nil {
		t.Fatal(err)
	}
	engs := make([]*sim.Engine, part.NumShards)
	for i := range engs {
		engs[i] = sim.NewEngine(1)
	}
	grp := sim.NewGroup(engs)
	defer grp.Close()
	sf := NewSharded(grp, tp, Config{Spray: true}, part)
	got := &sink{}
	for h := 0; h < tp.NumHosts; h++ {
		if h == 7 {
			sf.AttachProtocol(h, got)
		} else {
			sf.AttachProtocol(h, &sink{})
		}
	}
	sf.Start()
	sf.Host(0).Send(packet.NewData(0, 7, 1, 0, packet.MTU, packet.PrioShort))
	sf.Run(sim.Time(sim.Millisecond))
	if len(got.received) != 1 {
		t.Fatalf("sharded: received %d packets, want 1", len(got.received))
	}
	var n uint64
	for _, st := range sf.ShardStats() {
		n += st.Events
	}
	if n != 5 {
		t.Fatalf("sharded: one cross-rack packet ran %d events, want 5", n)
	}
}

// TestBurstWakes sends a back-to-back burst of n packets through one NIC
// to a rack neighbour. Each packet costs hostEnqueue, the ToR's forward
// and hostDeliver; the NIC adds one wake per packet that waited behind
// another, n−1 in all. The ToR downlink runs at the access rate, so each
// packet reaches it exactly when the previous one finishes serializing
// and never waits.
func TestBurstWakes(t *testing.T) {
	const n = 16
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	for i := 0; i < n; i++ {
		f.Host(0).Send(packet.NewData(0, 1, 1, i, packet.MTU, packet.PrioShort))
	}
	f.Engine().RunAll()
	if len(sinks[1].received) != n {
		t.Fatalf("received %d packets, want %d", len(sinks[1].received), n)
	}
	if got, want := f.Engine().Events(), uint64(3*n+n-1); got != want {
		t.Fatalf("burst of %d ran %d events, want %d (3 per packet + %d wakes)", n, got, want, n-1)
	}
	tx := sim.TransmissionTime(packet.MTU, f.Host(0).LineRate())
	for i := 1; i < n; i++ {
		if gap := sinks[1].at[i].Sub(sinks[1].at[i-1]); gap != tx {
			t.Fatalf("arrival gap %d = %v, want %v", i, gap, tx)
		}
	}
}

// sendPair sends packet A from host 0 to host 1 at t=0 and packet B at
// bAt, runs the halt/resume edits at their instants, and returns how
// much later B started serializing than A. Both packets cross the same
// idle links after the NIC, so the gap between their deliveries is the
// gap between their transmit starts.
func sendPair(t *testing.T, bAt sim.Time, edits ...edit) sim.Duration {
	t.Helper()
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	eng := f.Engine()
	f.Host(0).Send(packet.NewData(0, 1, 1, 0, packet.MTU, packet.PrioShort))
	eng.Schedule(bAt, func() {
		f.Host(0).Send(packet.NewData(0, 1, 1, 1, packet.MTU, packet.PrioShort))
	})
	for _, e := range edits {
		eng.Schedule(e.at, func() { e.fn(f) })
	}
	eng.RunAll()
	if len(sinks[1].received) != 2 {
		t.Fatalf("received %d packets, want 2", len(sinks[1].received))
	}
	return sinks[1].at[1].Sub(sinks[1].at[0])
}

type edit struct {
	at sim.Time
	fn func(f *Fabric)
}

// TestTransmitStartTimes pins when a waiting packet starts serializing.
// Packet A starts at HostDelay and keeps the NIC busy until
// HostDelay+tx; every case derives B's start time from that alone, the
// same instants the per-packet transmit-done event used to give.
func TestTransmitStartTimes(t *testing.T) {
	tp := topo.SmallLeafSpine().Build()
	hd := tp.HostDelay
	tx := sim.TransmissionTime(packet.MTU, tp.HostLink.Rate)
	busyUntil := sim.Time(hd + tx)
	at := func(d sim.Duration) sim.Time { return sim.Time(d) }
	pause := func(paused bool) func(f *Fabric) {
		i := 0
		if paused {
			i = 1
		}
		return func(f *Fabric) { pfcApply(f.Host(0).nic, nil, i) }
	}
	down := func(d bool) func(f *Fabric) {
		return func(f *Fabric) { f.SetHostDown(0, d) }
	}
	for _, tc := range []struct {
		name  string
		bAt   sim.Time // B's Send; it reaches the NIC HostDelay later
		edits []edit
		want  sim.Duration // B's start minus A's start
	}{
		{"enqueued at busyUntil", at(tx), nil, tx},
		{"enqueued during serialization", at(tx / 2), nil, tx},
		{"enqueued after serialization", at(2 * tx), nil, 2 * tx},
		{"PFC pause, resume before busyUntil", 0,
			[]edit{{at(hd + tx/4), pause(true)}, {at(hd + tx/2), pause(false)}}, tx},
		{"PFC pause, resume at busyUntil", 0,
			[]edit{{at(hd + tx/4), pause(true)}, {busyUntil, pause(false)}}, tx},
		{"PFC pause, resume after busyUntil", 0,
			[]edit{{at(hd + tx/4), pause(true)}, {at(hd + 3*tx), pause(false)}}, 3 * tx},
		{"link down, restored before busyUntil", 0,
			[]edit{{at(hd + tx/4), down(true)}, {at(hd + tx/2), down(false)}}, tx},
		{"link down, restored after busyUntil", 0,
			[]edit{{at(hd + tx/4), down(true)}, {at(hd + 5*tx/2), down(false)}}, 5 * tx / 2},
		{"link down taken after B queued", at(tx / 2),
			[]edit{{at(hd + 3*tx/4), down(true)}, {at(hd + 2*tx), down(false)}}, 2 * tx},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := sendPair(t, tc.bAt, tc.edits...); got != tc.want {
				t.Fatalf("B started %v after A, want %v", got, tc.want)
			}
		})
	}
}
