package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"dcpim/internal/checkpoint"
	"dcpim/internal/sim"
	"dcpim/internal/workload"
)

// ScaleResult is one cell of the hyperscale campaign, serialized into
// BENCH_scale.json so CI can archive the scaling trajectory per commit.
type ScaleResult struct {
	Hosts        int     `json:"hosts"`
	Load         float64 `json:"load"`
	Shards       int     `json:"shards"`
	Procs        int     `json:"procs"` // GOMAXPROCS the cell ran under
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Flows        int64   `json:"flows"`
	Completed    int64   `json:"completed"`
	Epochs       uint64  `json:"epochs"`
	SkippedPct   float64 `json:"skipped_pct"`
	Resumed      bool    `json:"resumed,omitempty"` // cell restored from a snapshot
	Digest       string  `json:"digest"`
}

// scaleHorizon is the per-tier trace horizon: the hyperscale trees carry
// ~8× the event rate of the 1024-host tree, so their cells run a shorter
// horizon to keep the full campaign's wall time bounded without thinning
// the grid.
func scaleHorizon(o Options, hosts int) sim.Duration {
	h := 100 * sim.Microsecond
	if hosts >= 4096 {
		h = 25 * sim.Microsecond
	}
	return o.scaled(h)
}

// procsFor resolves the campaign's GOMAXPROCS axis: the pinned -procs
// value, or {1, min(8, NumCPU)} — the serial baseline plus the widest
// point the acceptance grid asks for that the machine can provide.
func procsFor(o Options) []int {
	if o.Procs != 0 {
		return []int{o.Procs}
	}
	top := runtime.NumCPU()
	if top > 8 {
		top = 8
	}
	if top <= 1 {
		return []int{1}
	}
	return []int{1, top}
}

// scaleCellLabel names one campaign cell's snapshot files. Every axis
// that changes the run (or its snapshot metadata) is in the name, so a
// resumed cell can only ever pick up its own snapshots.
func scaleCellLabel(hosts int, load float64, shards, procs int) string {
	return fmt.Sprintf("scale-h%d-l%02d-s%d-p%d", hosts, int(load*100), shards, procs)
}

// latestSnapshot returns the highest-index snapshot of one cell label in
// dir, or nil when the cell has none (first run, or checkpointing off).
func latestSnapshot(dir, label string) *checkpoint.Snapshot {
	if dir == "" {
		return nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, label+".ck*.dcpimck"))
	if err != nil || len(paths) == 0 {
		return nil
	}
	sort.Strings(paths)
	f, err := os.Open(paths[len(paths)-1])
	if err != nil {
		return nil
	}
	defer f.Close()
	snap, err := checkpoint.Read(f)
	if err != nil {
		return nil
	}
	return snap
}

// runScaleCell executes one campaign cell, honoring the checkpoint
// options: with a cadence set the run snapshots as it goes, and when the
// cell's own latest snapshot already exists in CheckpointDir — an
// interrupted earlier campaign — the cell resumes from it (verified
// replay, DESIGN.md §14) instead of starting cold. A snapshot that fails
// to resume (stale build, changed grid) is reported and the cell runs
// fresh; the campaign never wedges on leftover files.
func runScaleCell(spec RunSpec, w io.Writer) (RunResult, bool) {
	if spec.Checkpoint == nil {
		return Run(spec), false
	}
	if snap := latestSnapshot(spec.Checkpoint.Dir, spec.Checkpoint.Label); snap != nil {
		res, _, err := Resume(spec, snap)
		if err == nil {
			return res, true
		}
		fmt.Fprintf(w, "  (snapshot %s.ck%04d not resumable — %v — running fresh)\n",
			snap.Meta.Label, snap.Meta.Index, err)
	}
	return Run(spec), false
}

// RunScale is the hyperscale campaign (DESIGN.md §13, §16): it sweeps
// the FatTree over hosts × load × shard count × GOMAXPROCS, reporting
// wall time, event throughput, barrier profile (epochs dispatched vs
// idle-skipped), and the delivered-stream digest for every cell. Within
// one (hosts, load) group the digest must be identical across every
// shard count and processor count — the run fails otherwise, making the campaign itself a
// determinism check at scales the unit tests don't reach.
//
// Flags narrow the sweep: -hosts, -shards and -procs pin those axes, and
// quick passes (-scale < 1) keep only the low-load point. CI runs two
// smoke legs: 1024 hosts serially and 8192 hosts at 8 shards with
// -procs 4 — the multi-core figures a single-core dev box cannot
// produce. With -metrics DIR set, the machine-readable rows land in
// DIR/BENCH_scale.json; with -checkpoint/-checkpoint-dir set each cell
// snapshots at the cadence and an interrupted campaign resumes cells
// from their latest snapshots.
func RunScale(o Options, w io.Writer) error {
	hostSet := []int{128, 1024, 8192}
	if o.Hosts != 0 {
		hostSet = []int{o.Hosts}
	}
	loads := []float64{0.3, 0.6}
	if o.Scale > 0 && o.Scale < 1 {
		loads = loads[:1]
	}
	shardsFor := func(hosts int) []int {
		if o.Shards != 0 {
			return []int{o.Shards}
		}
		switch {
		case hosts >= 4096:
			return []int{1, 8}
		case hosts >= 1024:
			return []int{1, 8, 16, 64}
		default:
			return []int{1, 4, 8}
		}
	}
	procsSet := procsFor(o)

	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)

	var rows []ScaleResult
	fmt.Fprintf(w, "sweep pool: %d workers (GOMAXPROCS %d); procs axis %v\n",
		o.EffectiveWorkers(), prevProcs, procsSet)
	fmt.Fprintf(w, "%6s %5s %7s %6s %10s %9s %12s %7s %8s  %s\n",
		"hosts", "load", "shards", "procs", "wall_ms", "events", "events/s", "flows", "skipped", "digest")
	for _, hosts := range hostSet {
		tp := fatTreeFor(hosts)
		horizon := scaleHorizon(o, hosts)
		for _, load := range loads {
			tr := workload.AllToAllConfig{
				Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: load,
				Dist: workload.WebSearch(), Horizon: horizon, Seed: o.Seed,
			}.Generate()
			var groupDigest uint64
			haveDigest := false
			for _, shards := range shardsFor(hosts) {
				for _, procs := range procsSet {
					runtime.GOMAXPROCS(procs)
					spec := RunSpec{
						Protocol: DCPIM, Topo: tp, Trace: tr,
						Horizon: horizon + horizon/2, Seed: o.Seed + 7,
						Shards: shards, Digest: true,
					}
					if o.CheckpointEvery > 0 {
						spec.Checkpoint = &CheckpointSpec{
							Every: o.CheckpointEvery, Dir: o.CheckpointDir,
							Label: scaleCellLabel(hosts, load, shards, procs), Journal: true,
						}
					}
					elapsed := WallTimer()
					res, resumed := runScaleCell(spec, w)
					wall := elapsed()
					runtime.GOMAXPROCS(prevProcs)
					if !haveDigest {
						groupDigest, haveDigest = res.Digest, true
					} else if res.Digest != groupDigest {
						return fmt.Errorf("scale: hosts=%d load=%.1f shards=%d procs=%d digest %#016x diverges from group %#016x",
							hosts, load, shards, procs, res.Digest, groupDigest)
					}
					var dispatched, skipped, epochs uint64
					for _, s := range res.ShardStats {
						dispatched += s.Dispatched
						skipped += s.Skipped
						if n := s.Dispatched + s.Skipped; n > epochs {
							epochs = n
						}
					}
					var skippedPct float64
					if dispatched+skipped > 0 {
						skippedPct = 100 * float64(skipped) / float64(dispatched+skipped)
					}
					row := ScaleResult{
						Hosts: hosts, Load: load, Shards: shards, Procs: procs,
						WallMS:       float64(wall.Microseconds()) / 1000,
						Events:       res.Events,
						EventsPerSec: float64(res.Events) / wall.Seconds(),
						Flows:        res.Started,
						Completed:    res.Col.Completed(),
						Epochs:       epochs,
						SkippedPct:   skippedPct,
						Resumed:      resumed,
						Digest:       fmt.Sprintf("%#016x", res.Digest),
					}
					rows = append(rows, row)
					mark := ""
					if resumed {
						mark = " (resumed)"
					}
					fmt.Fprintf(w, "%6d %5.1f %7d %6d %10.1f %9d %12.0f %7d %7.1f%%  %s%s\n",
						hosts, load, shards, procs, row.WallMS, row.Events,
						row.EventsPerSec, row.Flows, row.SkippedPct, row.Digest, mark)
				}
			}
		}
	}
	printScaleSpeedups(w, rows)
	if o.MetricsDir != "" {
		buf, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		path := filepath.Join(o.MetricsDir, "BENCH_scale.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d rows)\n", path, len(rows))
	}
	return nil
}

// printScaleSpeedups condenses the campaign into the figure the grid is
// for: per (hosts, load), best parallel events/sec over the serial
// (shards=1, procs=1) baseline. Groups without both a baseline and
// a parallel cell (pinned axes) are skipped.
func printScaleSpeedups(w io.Writer, rows []ScaleResult) {
	type key struct {
		hosts int
		load  float64
	}
	base := map[key]float64{}
	best := map[key]ScaleResult{}
	seen := map[key]bool{}
	var order []key
	for _, r := range rows {
		k := key{r.Hosts, r.Load}
		if !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
		if r.Shards == 1 && r.Procs == 1 {
			base[k] = r.EventsPerSec
		}
		if r.Shards > 1 && r.EventsPerSec > best[k].EventsPerSec {
			best[k] = r
		}
	}
	printed := false
	for _, k := range order {
		b, okB := base[k]
		p, okP := best[k]
		if !okB || !okP || b <= 0 {
			continue
		}
		if !printed {
			fmt.Fprintf(w, "speedup vs serial (shards=1, procs=1):\n")
			printed = true
		}
		fmt.Fprintf(w, "  %5d hosts load %.1f: %.2fx at shards=%d procs=%d (%.0f vs %.0f events/s)\n",
			k.hosts, k.load, p.EventsPerSec/b, p.Shards, p.Procs, p.EventsPerSec, b)
	}
}
