// Command cwbench is the repository's benchmark. It drives the
// streaming study through its public API under one of its workloads
// and prints every end-to-end metric, or, with --trace 1, times each
// layer's public functions from outside the program and prints the
// per-layer metrics. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through bench.sh, which builds it from source:
//
//	bash cwbench/bench.sh --workload cold-start --seed 1 --seconds 30 --trace 0
//
// "cwbench compare" is the same-host A/B comparator (see compare.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cloudwatch/internal/obs"
)

var workloads = map[string]func(env, *e2e, *tally) error{
	"cold-start": coldStart,
	"serve-hot":  serveHot,
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "cold-start or serve-hot")
	seed := flag.Int64("seed", 1, "workload seed: the study seed, from which the request-sequence seed is derived")
	seconds := flag.Int("seconds", 30, "how long the timed part of the run lasts")
	trace := flag.Int("trace", 0, "1 runs the traced layer-by-layer walk instead of the end-to-end workload")
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: cwbench --workload cold-start|serve-hot --seed N --seconds S --trace 0|1\n")
		return 2
	}
	start := markNow()
	ev := env{
		seed:    *seed,
		reqSeed: *seed*1_000_003 + 7,
		seconds: time.Duration(*seconds) * time.Second,
		senders: runtime.NumCPU(),
		log:     os.Stderr,
	}
	prov := stamp(*workload, ev, *trace == 1)
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("cwbench-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	defer os.RemoveAll(work)
	ev.work = work

	var t tally
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = traced(ev, &t)
	} else {
		var e e2e
		err = wl(ev, &e, &t)
		metrics = e.metrics()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		if t.failed == 0 {
			t.failed = 1
		}
	}
	res := result{Correct: t.failed == 0, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: metrics}
	end := markNow()
	prov.StealShare = start.stealShare(end)
	printSummary(os.Stderr, res, end.t.Sub(start.t), prov.StealShare)
	pj, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(pj))
	rj, _ := json.Marshal(res)
	fmt.Println(string(rj))
	if !res.Correct {
		return 1
	}
	return 0
}

// provenance names what a result measured and where.
type provenance struct {
	Commit      string `json:"commit"`
	Dirty       bool   `json:"dirty"`
	Version     string `json:"version"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	Host        string `json:"host"`
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	RequestSeed int64  `json:"request_seed"`
	Seconds     int    `json:"seconds"`
	Trace       bool   `json:"trace"`
	// StealShare is the share of the VM's busy CPU time the hypervisor
	// stole during the run (see clock.go).
	StealShare float64 `json:"steal_share"`
}

func stamp(workload string, ev env, trace bool) provenance {
	v := obs.Version()
	p := provenance{
		Commit:      v.Revision,
		Dirty:       v.Dirty,
		Version:     v.String(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		Workload:    workload,
		Seed:        ev.seed,
		RequestSeed: ev.reqSeed,
		Seconds:     int(ev.seconds / time.Second),
		Trace:       trace,
	}
	if p.Commit == "" {
		p.Commit = "unknown"
	}
	p.Host, _ = os.Hostname()
	return p
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printSummary(w *os.File, res result, wall time.Duration, steal float64) {
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d failed_ratio=%.4g wall=%.1fs steal=%.1f%%\n",
		res.Correct, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), wall.Seconds(), 100*steal)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}
