package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The same-host A/B comparator. It reads the saved output of benchmark
// runs of two commits — the parent and the change, run on one host and
// alternating which side goes first — pairs them by (workload, seed),
// and prints one row per (workload, metric):
//
//	cwbench compare -bench BENCHMARK.json -parent runs/parent -change runs/change
//
// Every file in each directory is one run's standard output; its last
// line is the result and the line before it the provenance stamp.

// benchRun is one parsed benchmark output.
type benchRun struct {
	workload string
	seed     int64
	res      result
}

func readRun(path string) (benchRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return benchRun{}, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		return benchRun{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(lines) < 2 {
		return benchRun{}, fmt.Errorf("%s: want a provenance line and a result line", path)
	}
	var prov struct {
		Provenance provenance `json:"provenance"`
	}
	var r benchRun
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &prov); err != nil {
		return benchRun{}, fmt.Errorf("%s: provenance: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.res); err != nil {
		return benchRun{}, fmt.Errorf("%s: result: %w", path, err)
	}
	r.workload, r.seed = prov.Provenance.Workload, prov.Provenance.Seed
	return r, nil
}

func readRuns(dir string) ([]benchRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []benchRun
	for _, e := range entries {
		if e.Type().IsRegular() {
			r, err := readRun(filepath.Join(dir, e.Name()))
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
	}
	return runs, nil
}

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: no bound
}

// row is one (workload, metric) comparison.
type row struct {
	workload, metric string
	better           string  // "lower" or "higher"
	bound            float64 // allowed worsening as a share of the parent median; 0 = none
	parent, change   []float64
	pairs            [][2]float64 // (parent, change) of runs with the same seed
	// strict rows (failed_ratio) are worse as soon as any change run is
	// worse than every parent run.
	strict bool
}

// judgement is the comparator's decision on a row.
type judgement struct {
	wins, losses, ties int // pairs the change won, lost and tied
	verdict            string
}

// judge applies the decision rule:
//   - a gain counts only when the change wins at least 9/10 of the
//     pairs (ties count for neither side) and the medians differ by
//     more than the parent's interquartile range;
//   - a metric whose spread on either side is wider than its bound is
//     unresolved, unless every change run beats (or loses to) every
//     parent run;
//   - failed_ratio is worse as soon as any change run failed more than
//     every parent run;
//   - otherwise the change is worse when its median is worse than the
//     parent's by more than the bound, and the same when not.
func judge(r row) judgement {
	var j judgement
	improves := func(p, c float64) bool {
		if r.better == "higher" {
			return c > p
		}
		return c < p
	}
	for _, pr := range r.pairs {
		switch {
		case pr[0] == pr[1]:
			j.ties++
		case improves(pr[0], pr[1]):
			j.wins++
		default:
			j.losses++
		}
	}
	if r.strict {
		j.verdict = "same"
		if summarize(r.change).Max > summarize(r.parent).Max {
			j.verdict = "worse"
		}
		return j
	}
	pm, cm := median(r.parent), median(r.change)
	pq1, pq3 := quartiles(r.parent)
	cq1, cq3 := quartiles(r.change)
	n := len(r.pairs)
	switch {
	case n > 0 && 10*j.wins >= 9*n && improves(pm, cm) && math.Abs(cm-pm) > pq3-pq1:
		j.verdict = "better"
	case n > 0 && 10*j.losses >= 9*n && improves(cm, pm) && math.Abs(cm-pm) > pq3-pq1 && r.bound == 0:
		j.verdict = "worse"
	case r.bound > 0 && (spread(pq1, pq3, pm) > r.bound || spread(cq1, cq3, cm) > r.bound):
		switch {
		case separated(r.parent, r.change, improves):
			j.verdict = "better"
		case separated(r.change, r.parent, improves):
			j.verdict = "worse"
		default:
			j.verdict = "unresolved"
		}
	case r.bound > 0 && improves(cm, pm) && math.Abs(cm-pm) > r.bound*math.Abs(pm):
		j.verdict = "worse"
	default:
		j.verdict = "same"
	}
	return j
}

// spread is the interquartile range as a share of the median.
func spread(q1, q3, med float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// separated reports whether every value of b improves on every value of
// a.
func separated(a, b []float64, improves func(p, c float64) bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if !improves(x, y) {
				return false
			}
		}
	}
	return true
}

// buildRows groups the runs of both sides into rows: every metric the
// spec names, plus failed_ratio, for every workload present.
func buildRows(spec benchSpec, parent, change []benchRun) []row {
	metrics := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	metrics = append(metrics, specMetric{Name: "failed_ratio", Better: "lower"})
	value := func(r benchRun, name string) (float64, bool) {
		if name == "failed_ratio" {
			return float64(r.res.Failed) / float64(max(r.res.Attempted, 1)), true
		}
		m, ok := r.res.Metrics[name]
		return m.Value, ok
	}
	workloads := map[string]bool{}
	for _, r := range append(append([]benchRun(nil), parent...), change...) {
		workloads[r.workload] = true
	}
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	var rows []row
	for _, w := range names {
		for _, m := range metrics {
			rw := row{workload: w, metric: m.Name, better: m.Better, bound: m.Bound, strict: m.Name == "failed_ratio"}
			bySeed := map[int64]float64{}
			for _, r := range parent {
				if v, ok := value(r, m.Name); ok && r.workload == w {
					rw.parent = append(rw.parent, v)
					bySeed[r.seed] = v
				}
			}
			for _, r := range change {
				if v, ok := value(r, m.Name); ok && r.workload == w {
					rw.change = append(rw.change, v)
					if p, ok := bySeed[r.seed]; ok {
						rw.pairs = append(rw.pairs, [2]float64{p, v})
					}
				}
			}
			if len(rw.parent) > 0 && len(rw.change) > 0 {
				rows = append(rows, rw)
			}
		}
	}
	return rows
}

func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	parentDir := fs.String("parent", "", "directory of the parent commit's run outputs")
	changeDir := fs.String("change", "", "directory of the change's run outputs")
	if err := fs.Parse(args); err != nil || *parentDir == "" || *changeDir == "" {
		fmt.Fprintln(os.Stderr, "usage: cwbench compare -bench BENCHMARK.json -parent DIR -change DIR")
		return 2
	}
	b, err := os.ReadFile(*benchPath)
	var spec benchSpec
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	var parent, change []benchRun
	if err == nil {
		parent, err = readRuns(*parentDir)
	}
	if err == nil {
		change, err = readRuns(*changeDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	worse := false
	fmt.Fprintf(out, "%-11s %-32s %-34s %-34s %-9s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, r := range buildRows(spec, parent, change) {
		j := judge(r)
		worse = worse || j.verdict == "worse"
		pq1, pq3 := quartiles(r.parent)
		cq1, cq3 := quartiles(r.change)
		fmt.Fprintf(out, "%-11s %-32s %-34s %-34s %-9s %s\n", r.workload, r.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g]", median(r.parent), pq1, pq3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", median(r.change), cq1, cq3),
			fmt.Sprintf("%d/%d", j.wins, len(r.pairs)), j.verdict)
	}
	if worse {
		return 1
	}
	return 0
}
