package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for n := 20; n <= 5000; n++ {
		q := tailQuantile(n)
		rank := int(math.Ceil(q*float64(n) - 1e-9))
		if beyond := n - rank; beyond < minTail {
			t.Fatalf("n=%d: quantile %.5f leaves %d samples beyond, want >= %d", n, q, beyond, minTail)
		}
		if n >= 1000 && q != 0.99 {
			t.Fatalf("n=%d: quantile %.5f, want p99 once 1000 samples allow it", n, q)
		}
		if n < 1000 && n-rank != minTail {
			t.Fatalf("n=%d: quantile %.5f leaves %d beyond, want the highest quantile leaving exactly %d", n, q, n-rank, minTail)
		}
	}
	if q := tailQuantile(12); q != 0.5 {
		t.Fatalf("tiny sample: quantile %v, want the median", q)
	}
}

func TestSummarizeTail(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	d := summarize(v)
	if d.TailQ != 0.95 || d.Tail != 190 || d.P50 != 100.5 {
		t.Fatalf("got %+v, want p95 = 190 (10 samples beyond) and p50 = 100.5", d)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
}

// TestOpenLoopCountsStall: one request stalls the server for 200 ms.
// Timed from their due times, the requests that came due during the
// stall carry it in their latency, though each was served quickly once
// sent.
func TestOpenLoopCountsStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if n.Add(1) == 100 {
			time.Sleep(stall)
		}
		mu.Unlock()
	}))
	defer srv.Close()

	var schedule []arrival
	for i := 0; i < 500; i++ {
		schedule = append(schedule, arrival{due: time.Duration(i) * time.Millisecond})
	}
	res := runOpenLoop(schedule, 2, func(c *http.Client, _ request, buf *bytes.Buffer) bool {
		resp, err := c.Get(srv.URL)
		if err != nil {
			return false
		}
		return drain(resp, buf) == nil
	})
	if len(res.outcomes) != len(schedule) {
		t.Fatalf("%d outcomes for %d arrivals", len(res.outcomes), len(schedule))
	}
	slow := 0
	var worst float64
	for _, o := range res.outcomes {
		if !o.ok {
			t.Fatal("request failed")
		}
		if o.latencyMS() >= 100 {
			slow++
		}
		worst = max(worst, o.latencyMS())
	}
	// About 200 requests come due during the stall; the first half of
	// them waits at least 100 ms. A closed-loop client timing from the
	// send would see one slow request.
	if slow < 50 {
		t.Fatalf("%d requests at >= 100 ms; the stall was not charged to the requests due during it", slow)
	}
	if worst < float64(stall/time.Millisecond)*0.9 {
		t.Fatalf("worst latency %.1f ms, want about the %v stall", worst, stall)
	}
}

// TestClosedLoopSendsEachOnce: a hit batch sends exactly n requests of
// the sequence, from its offset on and wrapping around, and counts the
// failed ones.
func TestClosedLoopSendsEachOnce(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	defer srv.Close()
	seq := make([]request, 10)
	for i := range seq {
		seq[i].choice = i
	}
	var mu sync.Mutex
	sent := map[int]int{}
	secs, failed := runClosedLoop(seq, 7, 23, 2, func(c *http.Client, req request, buf *bytes.Buffer) bool {
		mu.Lock()
		sent[req.choice]++
		mu.Unlock()
		resp, err := c.Get(srv.URL)
		return err == nil && drain(resp, buf) == nil && req.choice != 3
	})
	// Indices 7..29 wrap to 7, 8, 9, then 0..9 twice: 0..6 twice, 7..9 three times.
	for i := range seq {
		want := 2
		if i >= 7 {
			want = 3
		}
		if sent[i] != want {
			t.Fatalf("request %d sent %d times, want %d (all: %v)", i, sent[i], want, sent)
		}
	}
	if failed != 2 {
		t.Fatalf("%d failed, want the 2 sends of request 3", failed)
	}
	if secs <= 0 {
		t.Fatalf("batch took %v s", secs)
	}
}

func TestBacklogGrowing(t *testing.T) {
	var growing, flat, bursty []int
	for i := 0; i < 60; i++ {
		growing = append(growing, 2*i)
		flat = append(flat, i%3)
		b := 0
		if i%10 == 0 {
			b = 12
		}
		bursty = append(bursty, b)
	}
	if !backlogGrowing(growing, 2) {
		t.Error("a backlog rising every sample was not reported as growing")
	}
	if backlogGrowing(flat, 2) {
		t.Error("a flat backlog was reported as growing")
	}
	if backlogGrowing(bursty, 2) {
		t.Error("a bursty but steady backlog was reported as growing")
	}
	if backlogGrowing([]int{0, 50}, 2) {
		t.Error("two samples are too few to call a trend")
	}
}

func TestNewestSkewed(t *testing.T) {
	if p := newestSkewed(0.59, 8); p != 8 {
		t.Fatalf("u=0.59 gave prefix %d, want the newest", p)
	}
	prev := 8
	for u := 0.0; u < 1; u += 0.001 {
		p := newestSkewed(u, 8)
		if p < 1 || p > prev {
			t.Fatalf("u=%.3f gave prefix %d after %d: want non-increasing in 1..8", u, p, prev)
		}
		prev = p
	}
	if p := newestSkewed(0.999, 1); p != 1 {
		t.Fatalf("one ingested prefix, got %d", p)
	}
}

// pairsOf builds a row whose parent runs are p and change runs c,
// paired in order.
func pairsOf(p, c []float64, better string, bound float64) row {
	r := row{workload: "w", metric: "m", better: better, bound: bound, parent: p, change: c}
	for i := range p {
		r.pairs = append(r.pairs, [2]float64{p[i], c[i]})
	}
	return r
}

func TestJudgeNineOfTenWins(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	change := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 103} // 9 wins, 1 loss
	if j := judge(pairsOf(parent, change, "lower", 0.1)); j.verdict != "better" || j.wins != 9 {
		t.Fatalf("9/10 wins: %+v, want better", j)
	}
	change[8] = 100.5 // 8 wins
	if j := judge(pairsOf(parent, change, "lower", 0.1)); j.verdict == "better" {
		t.Fatalf("8/10 wins: %+v, want no gain", j)
	}
}

func TestJudgeTiesCountForNeither(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	change := []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 100} // 9 wins, 1 tie
	if j := judge(pairsOf(parent, change, "lower", 0.1)); j.verdict != "better" || j.ties != 1 {
		t.Fatalf("9 wins and a tie: %+v, want better with one tie", j)
	}
	change[7] = 101 // 8 wins, 2 ties: ties do not count as wins
	if j := judge(pairsOf(parent, change, "lower", 0.1)); j.verdict == "better" || j.ties != 2 {
		t.Fatalf("8 wins and 2 ties: %+v, want no gain", j)
	}
	same := append([]float64(nil), parent...)
	if j := judge(pairsOf(parent, same, "lower", 0.1)); j.verdict != "same" || j.ties != 10 {
		t.Fatalf("identical runs: %+v, want same", j)
	}
}

func TestJudgeGainNeedsMoreThanParentIQR(t *testing.T) {
	parent := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	change := make([]float64, len(parent))
	for i, p := range parent {
		change[i] = p - 1 // wins every pair, by far less than the IQR
	}
	if j := judge(pairsOf(parent, change, "lower", 0.5)); j.verdict == "better" {
		t.Fatalf("median shift inside the parent IQR: %+v, want no gain", j)
	}
}

func TestJudgeUnresolvedAndWorse(t *testing.T) {
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	shifted := []float64{60, 140, 70, 150, 80, 120, 90, 130, 100, 100}
	if j := judge(pairsOf(noisy, shifted, "lower", 0.1)); j.verdict != "unresolved" {
		t.Fatalf("spread wider than the bound: %+v, want unresolved", j)
	}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	worse := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	if j := judge(pairsOf(parent, worse, "lower", 0.1)); j.verdict != "worse" {
		t.Fatalf("20%% slower with a 10%% bound: %+v, want worse", j)
	}
	slightly := []float64{105, 106, 104, 105, 107, 103, 105, 106, 104, 105}
	if j := judge(pairsOf(parent, slightly, "lower", 0.1)); j.verdict != "same" {
		t.Fatalf("5%% slower with a 10%% bound: %+v, want same", j)
	}
	higher := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	if j := judge(pairsOf(parent, higher, "higher", 0.1)); j.verdict != "worse" {
		t.Fatalf("throughput down 20%%: %+v, want worse", j)
	}
}

func TestJudgeFailedRatioIsStrict(t *testing.T) {
	zeros := make([]float64, 10)
	r := pairsOf(zeros, zeros, "lower", 0)
	r.strict = true
	if j := judge(r); j.verdict != "same" {
		t.Fatalf("no failures on either side: %+v", j)
	}
	one := make([]float64, 10)
	one[3] = 0.001
	r = pairsOf(zeros, one, "lower", 0)
	r.strict = true
	if j := judge(r); j.verdict != "worse" {
		t.Fatalf("one failing change run: %+v, want worse", j)
	}
}

func TestParseCPULine(t *testing.T) {
	busy, steal, ok := parseCPULine("cpu  290934 7 25270 569447 1516 11 3996 14134 0 0\n")
	if !ok || busy != 290934+7+25270+11+3996 || steal != 14134 {
		t.Fatalf("got busy=%d steal=%d ok=%v", busy, steal, ok)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 x 4 5 6 7 8", ""} {
		if _, _, ok := parseCPULine(bad); ok {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestSteadyWallRemovesStolenShare(t *testing.T) {
	if got := steadyWall(2, 300, 0); got != 2 {
		t.Errorf("no steal: %v, want the wall time", got)
	}
	if got := steadyWall(2, 100, 100); got != 1 {
		t.Errorf("half the busy time stolen: %v, want half the wall time", got)
	}
	if got := steadyWall(2, 0, 0); got != 2 {
		t.Errorf("no ticks: %v, want the wall time", got)
	}
}
