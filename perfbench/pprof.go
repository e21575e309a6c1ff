package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuLayers maps a per-layer metric to the Go package whose leaf frames
// it counts.
var cpuLayers = []struct{ metric, pkg string }{
	{"sim.cpu_frac", "dcpim/internal/sim"},
	{"netsim.cpu_frac", "dcpim/internal/netsim"},
	{"core.cpu_frac", "dcpim/internal/core"},
	{"homa.cpu_frac", "dcpim/internal/protocols/homa"},
	{"packet.cpu_frac", "dcpim/internal/packet"},
}

// auditFrame marks samples spent in the conservation auditor, which only
// the traced run enables; they are reported on their own and left out of
// every layer's share so the audit does not inflate netsim.
const auditFrame = "dcpim/internal/netsim.(*auditor)"

// cpuShares aggregates CPU profiles with the toolchain's pprof: each
// sample is charged to the package of its leaf frame. It returns every
// cpuLayers metric as a share of the samples outside the auditor, plus
// bench.audit_cpu_frac, the auditor's share of all samples.
func cpuShares(ctx context.Context, goBin string, profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces"}, profiles...)
	cmd := exec.CommandContext(ctx, goBin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	byPkg, audit, total, err := parseTraces(out)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: the profiles hold no samples")
	}
	shares := map[string]float64{"bench.audit_cpu_frac": float64(audit) / float64(total)}
	for _, l := range cpuLayers {
		shares[l.metric] = ratio(float64(byPkg[l.pkg]), float64(total-audit))
	}
	return shares, nil
}

// parseTraces reads `go tool pprof -traces` output: blocks separated by
// dashed lines, each starting with the sample value and the leaf frame,
// followed by one caller frame per line.
func parseTraces(out []byte) (byPkg map[string]time.Duration, audit, total time.Duration, err error) {
	byPkg = map[string]time.Duration{}
	var (
		value   time.Duration
		leafPkg string
		audited bool
		inBlock bool
	)
	flush := func() {
		if !inBlock {
			return
		}
		total += value
		if audited {
			audit += value
		} else {
			byPkg[leafPkg] += value
		}
		inBlock = false
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if d, err := time.ParseDuration(fields[0]); err == nil {
				flush()
				value, leafPkg, inBlock = d, packageOf(fields[1]), true
				audited = strings.HasPrefix(fields[1], auditFrame)
				continue
			}
		}
		if inBlock && len(fields) > 0 && strings.HasPrefix(fields[0], auditFrame) {
			audited = true
		}
	}
	flush()
	return byPkg, audit, total, sc.Err()
}

// packageOf returns the import path of a pprof function name:
// "dcpim/internal/sim.(*Engine).Step" gives "dcpim/internal/sim".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
