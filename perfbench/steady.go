package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the subset of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs the benchmark n times per workload, seeds base..base+n-1,
// each in a fresh process one after another, and prints every metric's
// median, quartiles and spread: the quartile distance as a share of the
// median, which BENCHMARK.json's bounds are set from. Spreads above a
// third of a metric's bound are flagged.
func runSteady(only string, base int64, n int, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	var failed int
	for _, s := range specs {
		if only != "" && s.name != only {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := base + int64(i)
			cmd := exec.Command(self, "-workload", s.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			var rep report
			if err == nil {
				err = json.Unmarshal(lastLine(out), &rep)
			}
			if err != nil || !rep.Correct {
				failed++
				fmt.Printf("%s seed %d: failed (%v)\n", s.name, seed, err)
				continue
			}
			for name, v := range rep.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		fmt.Printf("%s: %d seeds from %d, --seconds %g --trace %d\n", s.name, n, base, seconds, trace)
		fmt.Printf("  %-32s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range defs {
			xs := values[d.name]
			if len(xs) == 0 {
				continue
			}
			q1, med, q3 := quartile(xs, 1), quartile(xs, 2), quartile(xs, 3)
			spread := ratio(q3-q1, med)
			flag := ""
			if b, ok := bounds[d.name]; ok && spread > b/3 {
				flag = "  above bound/3"
			}
			bound := "-"
			if b, ok := bounds[d.name]; ok {
				bound = strconv.FormatFloat(b, 'g', -1, 64)
			}
			fmt.Printf("  %-32s %14.6g %14.6g %14.6g %8.4f %6s %s%s\n", d.name, q1, med, q3, spread, bound, d.unit, flag)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark runs failed", failed)
	}
	return nil
}

// lastLine returns the final non-empty line of out.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}
