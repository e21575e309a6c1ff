package main

import (
	"fmt"

	"dcpim/internal/netsim"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
)

// recordDigest folds the flow records, in the collector's (Finish, ID)
// order, into one FNV-1a hash, in hex. Two runs of one seed must agree
// on it.
func recordDigest(recs []stats.FlowRecord) string {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(w uint64) {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= prime
			w >>= 8
		}
	}
	for _, r := range recs {
		mix(r.ID)
		mix(uint64(uint32(r.Src))<<32 | uint64(uint32(r.Dst)))
		mix(uint64(r.Size))
		mix(uint64(r.Arrival))
		mix(uint64(r.Finish))
		mix(uint64(r.Optimal))
	}
	return fmt.Sprintf("%016x", h)
}

// maxRecordErrors bounds how many bad records one run reports.
const maxRecordErrors = 4

// checkRecords returns one message per completed record that finished
// after the horizon or below its unloaded optimum by more than slack,
// and counts the records whose slowdown is below 1 within that slack.
// The slack exists because topo.UnloadedFCT, the slowdown denominator,
// is a model: it overestimates a few short flows by tens of
// nanoseconds, which stats.FlowRecord documents as "≥ 1 up to
// simulation granularity".
func checkRecords(recs []stats.FlowRecord, horizon sim.Time, slack sim.Duration) (errs []string, subUnity int) {
	for _, r := range recs {
		var msg string
		switch {
		case r.Finish > horizon:
			msg = fmt.Sprintf("flow %d finished at %v, after the horizon %v", r.ID, r.Finish, horizon)
		case r.FCT() < r.Optimal-slack || r.Optimal <= 0:
			msg = fmt.Sprintf("flow %d has slowdown %g (fct %v, optimal %v)", r.ID, r.Slowdown(), r.FCT(), r.Optimal)
		case r.FCT() < r.Optimal:
			subUnity++
			continue
		default:
			continue
		}
		if len(errs) == maxRecordErrors {
			errs = append(errs, "further bad records omitted")
			break
		}
		errs = append(errs, msg)
	}
	return errs, subUnity
}

// Quiescence search after the horizon: the conservation audit holds only
// when no packet is on a wire, so the traced run advances in small steps
// until the fabric owns no packet at all.
const (
	quiesceStep  = 1 * sim.Microsecond
	quiesceLimit = 20 * sim.Millisecond
)

// auditAtRest runs the fabric past horizon until it owns no packet and
// then returns the packet-conservation auditor's findings. owned reports
// how many packets the fabric holds (injected minus delivered minus
// dropped). The records were summarised before this runs, so the extra
// simulated time changes no reported number.
func auditAtRest(fab *netsim.Fabric, horizon sim.Time, owned func() int64) []string {
	t := horizon
	for owned() != 0 {
		if t.Sub(horizon) >= quiesceLimit {
			return []string{fmt.Sprintf("audit: fabric still holds %d packets %v after the horizon", owned(), quiesceLimit)}
		}
		t = t.Add(quiesceStep)
		fab.Run(t)
	}
	return fab.AuditVerify()
}

// sameDigest reports whether every run of one seed produced the same
// record digest, naming the first run that differs.
func sameDigest(runs []runResult) error {
	for _, r := range runs[1:] {
		if r.Digest != runs[0].Digest {
			kind := func(r runResult) string {
				if r.Traced {
					return "traced"
				}
				return "timed"
			}
			return fmt.Errorf("record digest %s (%s run) differs from %s (%s run)",
				r.Digest, kind(r), runs[0].Digest, kind(runs[0]))
		}
	}
	return nil
}
