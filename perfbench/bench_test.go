package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcpim/internal/sim"
	"dcpim/internal/stats"
)

// tiny shrinks a workload to a few tens of microseconds of traffic.
func tiny(s spec) spec {
	s.arrive = 20 * sim.Microsecond
	s.horizon = 30 * sim.Microsecond
	return s
}

// Every workload runs at a tiny horizon on two seeds, untraced and
// traced: the gate passes, both runs agree on the record digest, the
// traced run fills every per-layer value it owns, and the predicted
// zeros hold.
func TestWorkloadsTinyHorizon(t *testing.T) {
	for _, s := range specs {
		for _, seed := range []int64{1, 2} {
			s, seed := tiny(s), seed
			t.Run(fmt.Sprintf("%s/seed%d", s.name, seed), func(t *testing.T) {
				plain, err := simulate(s, seed, 0, false, "")
				if err != nil {
					t.Fatal(err)
				}
				traced, err := simulate(s, seed, 0, true, filepath.Join(t.TempDir(), "cpu.pprof"))
				if err != nil {
					t.Fatal(err)
				}
				if plain.Flows == 0 || plain.Completed == 0 {
					t.Fatalf("%d flows injected, %d completed", plain.Flows, plain.Completed)
				}
				if err := sameDigest([]runResult{plain, traced}); err != nil {
					t.Fatal(err)
				}
				for _, r := range []runResult{plain, traced} {
					if len(r.Errors) > 0 {
						t.Fatalf("gate: %v", r.Errors)
					}
				}
				if plain.Summary != traced.Summary || plain.Delivered != traced.Delivered {
					t.Fatalf("simulated results differ: %+v vs %+v", plain.Summary, traced.Summary)
				}
				orchestrated := map[string]bool{"bench.trace_overhead_frac": true, "bench.audit_cpu_frac": true}
				for _, l := range cpuLayers {
					orchestrated[l.metric] = true
				}
				for _, m := range perLayer {
					if _, ok := traced.Layer[m.name]; !ok && !orchestrated[m.name] {
						t.Errorf("traced run lacks %s", m.name)
					}
				}
				if s.shards == 1 && traced.Layer["sim.epochs"] != 0 {
					t.Errorf("serial workload ran %v barrier epochs", traced.Layer["sim.epochs"])
				}
				if s.shards > 1 && traced.Layer["sim.epochs"] == 0 {
					t.Error("sharded workload ran no barrier epochs")
				}
				ran, idle := "core", "homa"
				if s.protocol != "dcpim" {
					ran, idle = idle, ran
				}
				if traced.Layer[ran+".on_packet_calls"] == 0 || traced.Layer[ran+".on_packet_s"] == 0 {
					t.Errorf("%s wrapper saw no packets", ran)
				}
				for _, m := range []string{".on_packet_calls", ".on_packet_s", ".on_flow_arrival_s", ".tokens_issued", ".grants"} {
					if traced.Layer[idle+m] != 0 {
						t.Errorf("%s%s = %v on a workload that bypasses %s", idle, m, traced.Layer[idle+m], idle)
					}
				}
			})
		}
	}
}

// The metric catalogue printed by the command matches BENCHMARK.json,
// names and units, in order.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: catalogue has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: catalogue %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, command %s", i, w.Name, specs[i].name)
		}
	}
}

// The gate rejects a perturbed record: one finishing after the horizon,
// one finishing faster than physics allows, and one whose finish time
// moved by a picosecond, which changes the digest.
func TestGateRejectsPerturbedRecord(t *testing.T) {
	horizon := sim.Time(100 * sim.Microsecond)
	slack := 120 * sim.Nanosecond
	good := stats.FlowRecord{ID: 7, Src: 1, Dst: 2, Size: 3000,
		Arrival: sim.Time(10 * sim.Microsecond), Finish: sim.Time(14 * sim.Microsecond), Optimal: 3 * sim.Microsecond}
	recs := []stats.FlowRecord{good}
	if errs, _ := checkRecords(recs, horizon, slack); len(errs) != 0 {
		t.Fatalf("clean record rejected: %v", errs)
	}

	late := good
	late.Finish = horizon + 1
	if errs, _ := checkRecords([]stats.FlowRecord{late}, horizon, slack); len(errs) != 1 {
		t.Errorf("record finishing after the horizon passed the gate")
	}
	fast := good
	fast.Finish = fast.Arrival.Add(fast.Optimal - slack - 1)
	if errs, _ := checkRecords([]stats.FlowRecord{fast}, horizon, slack); len(errs) != 1 {
		t.Errorf("record with slowdown %g passed the gate", fast.Slowdown())
	}
	within := good
	within.Finish = within.Arrival.Add(within.Optimal - slack)
	if errs, sub := checkRecords([]stats.FlowRecord{within}, horizon, slack); len(errs) != 0 || sub != 1 {
		t.Errorf("record within the slack: errors %v, counted %d below unity", errs, sub)
	}

	moved := good
	moved.Finish++
	a := runResult{Digest: recordDigest(recs)}
	b := runResult{Digest: recordDigest([]stats.FlowRecord{moved}), Traced: true}
	if err := sameDigest([]runResult{a, b}); err == nil {
		t.Error("runs with different records passed the digest comparison")
	}
	rep := newReport(bench{spec: specs[0]}, endToEnd, [][]runResult{{a}}, b)
	if rep.Correct {
		t.Error("report with diverging digests is marked correct")
	}
}

// quartile reproduces Python's statistics.quantiles(xs, n=4), which the
// benchmark's spread rule is stated in.
func TestQuartileMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	want := []float64{2.75, 5.5, 8.25} // statistics.quantiles(range(1, 11), n=4)
	for i, w := range want {
		if got := quartile(xs, i+1); got != w {
			t.Errorf("quartile %d = %g, want %g", i+1, got, w)
		}
	}
	if got := median([]float64{3, 1}); got != 2 {
		t.Errorf("median of two = %g, want 2", got)
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Duration: 1s, Total samples = 60ms (6.00%)
-----------+-------------------------------------------------------
      30ms   dcpim/internal/sim.siftDown
             dcpim/internal/sim.(*Engine).Step
-----------+-------------------------------------------------------
      20ms   runtime.mapassign_fast64ptr
             dcpim/internal/netsim.(*auditor).inject
             dcpim/internal/netsim.(*Host).Send
-----------+-------------------------------------------------------
      10ms   dcpim/internal/protocols/homa.(*Proto).OnPacket
-----------+-------------------------------------------------------
`)
	byPkg, audit, total, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if total.Milliseconds() != 60 || audit.Milliseconds() != 20 {
		t.Fatalf("total %v audit %v, want 60ms and 20ms", total, audit)
	}
	if byPkg["dcpim/internal/sim"].Milliseconds() != 30 || byPkg["dcpim/internal/protocols/homa"].Milliseconds() != 10 {
		t.Fatalf("by package: %v", byPkg)
	}
}

// The last line is a JSON object with exactly the keys correct,
// attempted, failed and metrics.
func TestReportLastLine(t *testing.T) {
	rep := newReport(bench{spec: specs[0]}, endToEnd, [][]runResult{{{Digest: "x"}}})
	for _, m := range endToEnd {
		rep.set(m.name, 1.5)
	}
	var buf bytes.Buffer
	rep.print(&buf)
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(lastLine(buf.Bytes()), &obj); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range obj {
		keys = append(keys, k)
	}
	if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Fatalf("last-line keys %s", strings.Join(keys, ","))
	}
}
