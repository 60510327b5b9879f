package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cloudwatch"
	"cloudwatch/internal/core"
)

// hotRate is serve-hot's offered rate, in requests per second.
const hotRate = 2000

// hitBatch is how many reads one batch of the closed-loop hit phase
// sends; hit_read_us is the median over batches.
const hitBatch = 4000

// coldHitBatches is how many hit batches cold-start sends after its
// passes.
const coldHitBatches = 25

// setupRepeats is how many times serve-hot sets up per run; setup_s
// and the cold-path metrics are medians over the set-ups.
const setupRepeats = 13

// referenceRepeats is how many times cold-start builds its reference;
// setup_s is the median.
const referenceRepeats = 5

// env is what every workload runs with.
type env struct {
	seed    int64 // study seed
	reqSeed int64 // request-sequence seed
	seconds time.Duration
	work    string // scratch directory inside the checkout
	senders int
	log     *os.File // human-readable progress
}

// tally counts attempted and failed operations.
type tally struct{ attempted, failed int64 }

func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// e2e gathers the samples behind the end-to-end metrics. Both
// workloads fill every field: the cold path is the measured pass of
// cold-start and the set-up of serve-hot.
type e2e struct {
	setupS        []float64
	firstRenderMS []float64
	ingestRPS     []float64
	studyS        []float64
	recoverMS     []float64
	hitUS         []float64 // per hit batch: µs per read
	heapMB        float64
}

func (e *e2e) addPass(p *coldPass) {
	e.firstRenderMS = append(e.firstRenderMS, p.firstRenderMS)
	e.ingestRPS = append(e.ingestRPS, float64(p.records)/p.ingestS)
	e.studyS = append(e.studyS, p.studyS)
	e.recoverMS = append(e.recoverMS, p.recoverMS)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (e *e2e) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":              {median(e.setupS), "s"},
		"first_render_ms":      {median(e.firstRenderMS), "ms"},
		"ingest_records_per_s": {median(e.ingestRPS), "records/s"},
		"study_s":              {median(e.studyS), "s"},
		"recover_ms":           {median(e.recoverMS), "ms"},
		"hit_read_us":          {median(e.hitUS), "us"},
		"live_heap_mb":         {e.heapMB, "MB"},
	}
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	// The second collection frees what the first only finalized.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// coldStart is the researcher's batch job, repeated: every pass opens a
// fresh store and goes from seed to all experiments rendered, then
// restarts and recovers. Set-up builds the batch reference the passes
// are checked against. After the passes, the last recovered engine is
// served and its render cache filled for a short hit phase, so
// hit_read_us has a value here too.
func coldStart(ev env, e *e2e, t *tally) error {
	cfg := studyConfig(ev.seed)
	var ref reference
	for i := 0; i < referenceRepeats; i++ {
		start := markNow()
		var err error
		ref, err = newReference(cfg)
		t.add(err == nil)
		if err != nil {
			return err
		}
		e.setupS = append(e.setupS, start.since())
	}
	dir := filepath.Join(ev.work, "cold")
	deadline := time.Now().Add(ev.seconds)
	var eng *cloudwatch.StreamEngine
	for pass := 0; pass < 3 || time.Now().Before(deadline); pass++ {
		if eng != nil {
			eng.Close()
		}
		p, err := runColdPass(cfg, dir, ref)
		if err != nil {
			t.add(false)
			return fmt.Errorf("cold pass %d: %w", pass, err)
		}
		t.attempted += int64(p.ops)
		e.addPass(p)
		eng = p.eng
		fmt.Fprintf(ev.log, "pass %d: first render %.0f ms, study %.2f s, recover %.0f ms (steal-free; %.1f%% of busy CPU stolen)\n",
			pass, p.firstRenderMS, p.studyS, p.recoverMS, 100*p.stealShare)
	}
	// What the researcher's process holds at the end: the recovered
	// engine of the last pass, with its prefix snapshots.
	e.heapMB = liveHeapMB()
	defer eng.Close()

	lb, err := startLoopback()
	if err != nil {
		return err
	}
	defer lb.close()
	lb.attach(eng)
	if err := fillCache(lb, eng.NumEpochs(), ev.senders); err != nil {
		t.add(false)
		return err
	}
	t.attempted += int64(eng.NumEpochs() * len(experiments))
	var smp sampler
	send := hotSend(lb, eng.NumEpochs(), ref, &smp)
	seq := hotSequence(ev.reqSeed)
	for b := 0; b < coldHitBatches; b++ {
		e.hitUS = append(e.hitUS, hitBatchUS(ev, seq, b, send, t))
	}
	checked, bad := smp.verify(eng, ev.log)
	t.attempted += int64(checked)
	t.failed += int64(bad)
	fmt.Fprintf(ev.log, "hit phase: %d batches of %d reads, %.1f µs per read (median); %d sampled bodies checked (%d bad)\n",
		coldHitBatches, hitBatch, median(e.hitUS), checked, bad)
	return nil
}

// statusBody is the part of /v1/status the checks read.
type statusBody struct {
	Ingested  int `json:"ingested"`
	EpochList []struct {
		Records int `json:"records"`
	} `json:"epoch_list"`
}

// records sums a status body's per-epoch record counts.
func (s statusBody) records() int {
	n := 0
	for _, ep := range s.EpochList {
		n += ep.Records
	}
	return n
}

// serveHot serves a fully ingested, restarted engine whose render cache
// holds every key: every timed read is a cache hit. Each set-up is the
// server's cold start — the cold path on an empty store, a restart,
// and a cache fill — so the cold-path metrics are measured here too.
// The timed part is an open loop at hotRate for a third of the time
// (latency and generator health, on the log), then closed-loop hit
// batches for the rest, which give hit_read_us.
func serveHot(ev env, e *e2e, t *tally) error {
	cfg := studyConfig(ev.seed)
	ref, err := newReference(cfg)
	t.add(err == nil)
	if err != nil {
		return err
	}
	lb, err := startLoopback()
	if err != nil {
		return err
	}
	defer lb.close()

	dir := filepath.Join(ev.work, "hot")
	var eng *cloudwatch.StreamEngine
	for i := 0; i < setupRepeats; i++ {
		if eng != nil {
			// A set-up is a fresh server's start: the previous server
			// and engine are gone, not still holding the heap.
			lb.attach(nil)
			eng.Close()
			eng = nil
			runtime.GC()
		}
		start := markNow()
		p, err := runColdPass(cfg, dir, ref)
		if err != nil {
			t.add(false)
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		t.attempted += int64(p.ops)
		lb.attach(p.eng)
		if err := fillCache(lb, p.eng.NumEpochs(), ev.senders); err != nil {
			t.add(false)
			return err
		}
		t.attempted += int64(p.eng.NumEpochs() * len(core.ExperimentNames()))
		e.setupS = append(e.setupS, start.since())
		e.addPass(p)
		eng = p.eng
		fmt.Fprintf(ev.log, "set-up %d: %.2f s (steal-free; pass %.1f%% stolen)\n", i, e.setupS[i], 100*p.stealShare)
	}
	defer eng.Close()

	res, checked, bad := serveHotReads(ev, lb, eng, ref, ev.seconds/3, ev.reqSeed)
	reportLoad(ev, "open loop", res, t)
	t.attempted += int64(checked)
	t.failed += int64(bad)

	var smp sampler
	send := hotSend(lb, eng.NumEpochs(), ref, &smp)
	seq := hotSequence(ev.reqSeed + 4)
	deadline := time.Now().Add(ev.seconds - ev.seconds/3)
	for b := 0; b < 3 || time.Now().Before(deadline); b++ {
		e.hitUS = append(e.hitUS, hitBatchUS(ev, seq, b, send, t))
	}
	hc, hb := smp.verify(eng, ev.log)
	t.attempted += int64(hc)
	t.failed += int64(hb)
	fmt.Fprintf(ev.log, "hit phase: %d batches of %d reads, %.1f µs per read (median)\n", len(e.hitUS), hitBatch, median(e.hitUS))
	fmt.Fprintf(ev.log, "checked %d sampled snapshot bodies (%d mismatched); %d request-log bytes\n",
		checked+hc, bad+hb, lb.sink.n.Load())
	e.heapMB = liveHeapMB()
	return nil
}

// serveHotReads offers serve-hot's read mix to lb at hotRate for dur:
// snapshot reads with the prefix uniform and the experiment by Zipf,
// plus a share of /v1/status (checked against the reference's record
// count) and /healthz. It returns the generator's observations and how
// many sampled snapshot bodies were checked against eng and mismatched.
func serveHotReads(ev env, lb *loopback, eng *cloudwatch.StreamEngine, ref reference, dur time.Duration, seed int64) (res loadResult, checked, bad int) {
	rng := rand.New(rand.NewSource(seed))
	schedule := poissonSchedule(rng, hotRate, dur, readMix(rng, 0))
	var smp sampler
	res = runOpenLoop(schedule, ev.senders, hotSend(lb, eng.NumEpochs(), ref, &smp))
	checked, bad = smp.verify(eng, ev.log)
	return res, checked, bad
}

// hotSend sends one request of serve-hot's read mix to a server of an
// engine with n epochs ingested: a snapshot read with the prefix
// uniform, offered to smp for the post-run check; a /v1/status, checked
// against the reference's record count; or a /healthz.
func hotSend(lb *loopback, n int, ref reference, smp *sampler) sendFunc {
	return func(c *http.Client, req request, buf *bytes.Buffer) bool {
		switch req.kind {
		case kindStatus:
			if !get(c, lb.base+"/v1/status", buf) {
				return false
			}
			var sb statusBody
			return json.Unmarshal(buf.Bytes(), &sb) == nil && sb.Ingested == n && sb.records() == ref.records
		case kindHealthz:
			return get(c, lb.base+"/healthz", buf)
		default:
			prefix := 1 + int(req.u*float64(n))
			if !get(c, fmt.Sprintf("%s/v1/snapshot/%d/%s", lb.base, prefix, experiments[req.choice]), buf) {
				return false
			}
			smp.offer(buf.Bytes())
			return true
		}
	}
}

// hotSequence draws serve-hot's read mix for the hit phase from seed.
func hotSequence(seed int64) []request {
	pick := readMix(rand.New(rand.NewSource(seed)), 0)
	seq := make([]request, 16*hitBatch)
	for i := range seq {
		seq[i] = pick()
	}
	return seq
}

// hitBatchUS sends batch b of the hit phase — hitBatch reads of seq,
// back to back on ev.senders connections — folds the outcomes into t
// and returns the steal-free µs per read.
func hitBatchUS(ev env, seq []request, b int, send sendFunc, t *tally) float64 {
	secs, failed := runClosedLoop(seq, b*hitBatch, hitBatch, ev.senders, send)
	t.attempted += hitBatch
	t.failed += int64(failed)
	return 1e6 * secs / hitBatch
}

// reportLoad folds an open-loop run into the tally and prints the read
// latencies and the generator's own health.
func reportLoad(ev env, label string, res loadResult, t *tally) {
	var reads, late []float64
	for _, o := range res.outcomes {
		t.add(o.ok)
		if o.kind == kindSnapshot {
			reads = append(reads, o.latencyMS())
		}
		late = append(late, o.lateMS())
	}
	r, l := summarize(reads), summarize(late)
	fmt.Fprintf(ev.log, "%s: %d reads, p50 %.3f ms, p%.1f %.3f ms; generator late p50 %.3f ms, p%.1f %.3f ms; backlog max %d, growing=%v\n",
		label, r.N, r.P50, 100*r.TailQ, r.Tail, l.P50, 100*l.TailQ, l.Tail, maxOf(res.backlog), backlogGrowing(res.backlog, ev.senders))
}

func maxOf(v []int) int {
	m := 0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}
