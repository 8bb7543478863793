package main

import (
	"fmt"
	"io"
	"path/filepath"
)

// manifest is BENCHMARK.json: the names, units, directions and bounds
// this benchmark publishes, and how the driver runs it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bounded `json:"end_to_end"`
	PerLayer []bounded `json:"per_layer"`
}

type bounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(root string) (manifest, error) {
	var m manifest
	err := readJSONFile(filepath.Join(root, "BENCHMARK.json"), &m)
	return m, err
}

// verdict applies a metric's direction and bound to two sets of runs.
// worse is by how much of a's median b's median is worse. When either
// side's own runs spread wider than the bound, the pair cannot resolve
// a difference of that size, and says so instead of "unchanged".
func verdict(b bounded, a, c []float64) (worse float64, word string) {
	ma, mc := median(a), median(c)
	if ma != 0 {
		worse = mc/ma - 1
	}
	if b.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(a) > b.Bound || spread(c) > b.Bound:
		word = "unresolved"
	case worse > b.Bound:
		word = "regressed"
	case worse < -b.Bound:
		word = "improved"
	default:
		word = "ok"
	}
	return worse, word
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians (every ratio with its base), both spreads, the bound and the
// verdict. It fails when any row regressed or is unresolved.
func compareFiles(root, pathA, pathB string, out io.Writer) error {
	m, err := readManifest(root)
	if err != nil {
		return err
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "base %s (commit %s, %d runs)  against %s (commit %s, %d runs)\n",
		pathA, a.Record.Commit, len(a.Runs), pathB, b.Record.Commit, len(b.Runs))
	fmt.Fprintf(out, "%-16s %-26s %-6s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "better", "base median", "spread", "new median", "spread", "worse by", "bound", "verdict")
	bad := 0
	for _, w := range m.Workloads {
		for _, d := range m.EndToEnd {
			va, vb := valuesOf(a.Runs, w.Name, d.Name), valuesOf(b.Runs, w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(out, "%-16s %-26s missing on one side\n", w.Name, d.Name)
				bad++
				continue
			}
			worse, word := verdict(d, va, vb)
			if word == "regressed" || word == "unresolved" {
				bad++
			}
			fmt.Fprintf(out, "%-16s %-26s %-6s %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.Name, d.Name, d.Better, median(va), 100*spread(va), median(vb), 100*spread(vb),
				100*worse, 100*d.Bound, word)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, unresolved or missing", bad)
	}
	return nil
}
