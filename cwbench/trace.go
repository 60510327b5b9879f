package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cloudwatch"
	"cloudwatch/internal/core"
	"cloudwatch/internal/obs"
	"cloudwatch/internal/store"
)

// The traced run: the cold path again, but with each layer's public
// functions called directly, in the order stream.Open and
// Engine.IngestNext call them, and timed from here. The program's own
// spans and metrics stay at their defaults; the benchmark only reads
// counters through obs.Default().

// span is one timed call into a layer, in steal-free seconds (see
// clock.go), like the end-to-end times it is compared with.
type span struct {
	layer string
	dur   float64
}

// tracer keeps the spans of a walk in memory.
type tracer struct{ spans []span }

func (tr *tracer) do(layer string, f func() error) error {
	start := markNow()
	err := f()
	tr.spans = append(tr.spans, span{layer, start.since()})
	return err
}

// last is the duration of the latest span, in ms.
func (tr *tracer) last() float64 { return 1000 * tr.spans[len(tr.spans)-1].dur }

// total is the summed duration of the spans of one layer, in seconds.
func (tr *tracer) total(layer string) float64 {
	d := 0.0
	for _, s := range tr.spans {
		if s.layer == layer {
			d += s.dur
		}
	}
	return d
}

// walk is one traced cold path.
type walk struct {
	tr          tracer
	wall        float64 // seconds from open to the recovered table2, as study_s + recover_ms time it
	records     int
	allocs      uint64
	allocBytes  uint64
	segBytes    int64
	fsyncs      int64
	advanceMS   []float64
	repairs     int
	coldMS      map[string]float64
	tipTable2   string
	recoveredT2 string
}

// counter reads a counter of the program's metrics registry.
func counter(name string) int64 { return obs.Default().Counter(name, "").Value() }

// tracedWalk runs the cold path layer by layer in a fresh directory,
// removed again when it returns.
func tracedWalk(cfg cloudwatch.StreamConfig, dir string) (*walk, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w := &walk{coldMS: map[string]float64{}}
	tr := &w.tr
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	fsync0 := counter("store_fsync_total")
	t0 := markNow()

	var st *store.Store
	if err := tr.do("persist", func() (err error) { st, err = store.Open(store.DirFS(), dir); return err }); err != nil {
		return nil, err
	}
	var es *core.EpochSet
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := tr.do("generate", func() (err error) { es, err = core.GenerateEpochs(cfg.Study, cfg.Epochs); return err }); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	w.allocs, w.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	w.records = es.NumRecords()
	if err := tr.do("persist", func() error { return st.WriteStudy(cfgJSON, es.Material()) }); err != nil {
		return nil, err
	}

	inc := es.Incremental()
	advance := func(inc *core.Incremental) (s *core.Study, err error) {
		err = tr.do("assemble", func() (err error) { s, err = inc.Advance(); return err })
		w.advanceMS = append(w.advanceMS, tr.last())
		return s, err
	}
	render := func(s *core.Study, name string) (out string) {
		tr.do("render", func() error { out, _ = core.RenderExperiment(s, name); return nil })
		return out
	}
	n := es.NumEpochs()
	var tip *core.Study
	for p := 1; p <= n; p++ {
		if tip, err = advance(inc); err != nil {
			return nil, err
		}
		if err := tr.do("persist", func() error { return st.SetIngested(p) }); err != nil {
			return nil, err
		}
		if p == 1 {
			render(tip, "table2")
		}
	}
	w.repairs = inc.Repairs()
	for _, name := range core.ExperimentNames() {
		out := render(tip, name)
		w.coldMS[name] = tr.last()
		if name == "table2" {
			w.tipTable2 = out
		}
	}
	w.fsyncs = counter("store_fsync_total") - fsync0
	if w.segBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	beforeRestart := t0.since()
	if err := st.Close(); err != nil {
		return nil, err
	}

	t1 := markNow()
	var es2 *core.EpochSet
	var cursor int
	err = tr.do("recover", func() error {
		st2, err := store.Open(store.DirFS(), dir)
		if err != nil {
			return err
		}
		_, m := st2.Recovered()
		if m == nil {
			return fmt.Errorf("traced store recovered nothing: %s", st2.Note())
		}
		cursor = st2.Ingested()
		es2, err = core.RestoreEpochSet(cfg.Study, m)
		if cerr := st2.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	inc2 := es2.Incremental()
	for p := 1; p <= cursor; p++ {
		if tip, err = advance(inc2); err != nil {
			return nil, err
		}
	}
	w.recoveredT2 = render(tip, "table2")
	w.wall = beforeRestart + t1.since()
	return w, nil
}

// dirBytes is the total size of the regular files in dir: what the
// store wrote.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}

// layers are the traced layers whose spans tile the cold path.
var layers = []string{"generate", "persist", "assemble", "render", "recover"}

// ladder is the offered-rate ladder behind client.max_rps, in requests
// per second.
var ladder = []float64{2500, 5000, 7500, 10000, 15000, 20000}

// p99Limit is the tail latency a ladder rung must meet to pass.
const p99Limit = 25.0 // ms

// traced runs the layer-by-layer walk and returns the per-layer metrics.
func traced(ev env, t *tally) (map[string]metric, error) {
	cfg := studyConfig(ev.seed)
	ref, err := newReference(cfg)
	t.add(err == nil)
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// Untraced and traced passes alternate; each side's median is
	// compared for the tracing overhead.
	var eng *cloudwatch.StreamEngine
	var untraced []float64
	var walks []*walk
	for i := 0; i < 2; i++ {
		if eng != nil {
			eng.Close()
		}
		p, err := runColdPass(cfg, filepath.Join(ev.work, "untraced"), ref)
		t.add(err == nil)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, p.studyS*1000+p.recoverMS)
		eng = p.eng
		w, err := tracedWalk(cfg, filepath.Join(ev.work, "traced"))
		t.add(err == nil)
		if err != nil {
			return nil, err
		}
		t.add(w.records == ref.records && w.tipTable2 == ref.table2 && w.recoveredT2 == ref.table2)
		walks = append(walks, w)
		fmt.Fprintf(ev.log, "walk %d: untraced %.0f ms, traced %.0f ms\n", i, untraced[i], 1000*w.wall)
	}
	defer eng.Close()

	med := func(f func(w *walk) float64) float64 {
		var v []float64
		for _, w := range walks {
			v = append(v, f(w))
		}
		return median(v)
	}
	layerMS := func(layer string) func(w *walk) float64 {
		return func(w *walk) float64 { return 1000 * w.tr.total(layer) }
	}
	set("generate.ms", med(layerMS("generate")), "ms")
	set("generate.records_per_s", med(func(w *walk) float64 { return float64(w.records) / w.tr.total("generate") }), "records/s")
	set("generate.allocs", med(func(w *walk) float64 { return float64(w.allocs) }), "count")
	set("generate.alloc_mb", med(func(w *walk) float64 { return float64(w.allocBytes) / (1 << 20) }), "MB")
	set("persist.ms", med(layerMS("persist")), "ms")
	set("persist.mb_per_s", med(func(w *walk) float64 { return float64(w.segBytes) / (1 << 20) / w.tr.total("persist") }), "MB/s")
	set("persist.fsyncs", med(func(w *walk) float64 { return float64(w.fsyncs) }), "count")
	set("recover.ms", med(layerMS("recover")), "ms")
	set("recover.mb_per_s", med(func(w *walk) float64 { return float64(w.segBytes) / (1 << 20) / w.tr.total("recover") }), "MB/s")
	// Each walk assembles its study twice: ingesting, and rehydrating
	// after the restart.
	var adv []float64
	advRecords := 0
	for _, w := range walks {
		adv = append(adv, w.advanceMS...)
		advRecords += 2 * w.records
	}
	set("assemble.p50_ms", median(adv), "ms")
	set("assemble.max_ms", summarize(adv).Max, "ms")
	set("assemble.records_per_s", float64(advRecords)/(mean(adv)*float64(len(adv))/1000), "records/s")
	set("assemble.repairs", med(func(w *walk) float64 { return float64(w.repairs) }), "count")
	coldTotal := 0.0
	for _, name := range core.ExperimentNames() {
		v := med(func(w *walk) float64 { return w.coldMS[name] })
		coldTotal += v
		set("render.cold_ms."+name, v, "ms")
	}
	set("render.cold_total_ms", coldTotal, "ms")
	var glue []float64
	for _, w := range walks {
		g := w.wall
		for _, l := range layers {
			g -= w.tr.total(l)
		}
		glue = append(glue, 1000*g)
	}
	set("trace.glue_ms", median(glue), "ms")
	set("trace.overhead_ratio", med(func(w *walk) float64 { return 1000 * w.wall })/median(untraced), "ratio")

	// Warm render and snapshot lookups on the untraced engine's tip.
	n := eng.NumEpochs()
	tip, err := eng.Snapshot(n)
	if err != nil {
		return nil, err
	}
	set("render.warm_us.table2", medianTiming(50, func() { core.RenderExperiment(tip, "table2") })*1e6, "us")
	set("snapshot.tip_us", medianTiming(2000, func() { eng.Snapshot(n) })*1e6, "us")

	// The server layer without a socket: ServeHTTP on a filled cache.
	lruHit0, lruMiss0 := counter("stream_snapshot_lru_hits_total"), counter("stream_snapshot_lru_misses_total")
	hit0, miss0 := counter("stream_render_cache_hits_total"), counter("stream_render_cache_misses_total")
	sf0 := counter("stream_singleflight_dedup_total")
	var sink countingSink
	srv := cloudwatch.NewStreamServer(eng)
	srv.SetLogger(slog.New(slog.NewTextHandler(&sink, nil)))
	h := srv.Handler()
	for p := 1; p <= n; p++ {
		for _, name := range core.ExperimentNames() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/snapshot/%d/%s", p, name), nil))
			t.add(rec.Code == http.StatusOK)
		}
	}
	rng := rand.New(rand.NewSource(ev.reqSeed))
	pick := readMix(rng, 0)
	paths := make([]string, 4000)
	for i := range paths {
		r := pick()
		switch r.kind {
		case kindStatus:
			paths[i] = "/v1/status"
		case kindHealthz:
			paths[i] = "/healthz"
		default:
			paths[i] = fmt.Sprintf("/v1/snapshot/%d/%s", 1+int(r.u*float64(n)), experiments[r.choice])
		}
	}
	serve := func() (perReq []float64, bytes int64) {
		for _, p := range paths {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, p, nil)
			start := time.Now()
			h.ServeHTTP(rec, req)
			perReq = append(perReq, float64(time.Since(start).Nanoseconds())/1e3)
			bytes += int64(rec.Body.Len())
			t.add(rec.Code == http.StatusOK)
		}
		return perReq, bytes
	}
	var onUS, offUS []float64
	var handlerUS []float64
	var respBytes int64
	for i := 0; i < 6; i++ {
		on := onFirst(i)
		runtime.GC()
		obs.SetEnabled(on)
		us, b := serve()
		obs.SetEnabled(true)
		if on {
			handlerUS = append(handlerUS, us...)
			respBytes += b
			onUS = append(onUS, mean(us))
		} else {
			offUS = append(offUS, mean(us))
		}
	}
	hs := summarize(handlerUS)
	set("server.handler_p50_us", hs.P50, "us")
	set("server.handler_p99_us", hs.Tail, "us")
	set("server.response_bytes", float64(respBytes)/float64(len(handlerUS)), "bytes")
	set("obs.serve_overhead", median(onUS)/median(offUS), "ratio")

	// Instrumentation cost on the ingest side: generation plus assembly
	// with stage tracing on and off, in alternating pairs.
	var ingOn, ingOff []float64
	for i := 0; i < 6; i++ {
		on := onFirst(i)
		runtime.GC()
		obs.SetEnabled(on)
		d, err := ingestOnce(cfg)
		obs.SetEnabled(true)
		if err != nil {
			return nil, err
		}
		if on {
			ingOn = append(ingOn, d)
		} else {
			ingOff = append(ingOff, d)
		}
	}
	set("obs.ingest_overhead", median(ingOn)/median(ingOff), "ratio")

	// The client over a socket: one serve-live cycle (the miss path),
	// serve-hot's reads on the filled server, then the offered-rate
	// ladder.
	lb, err := startLoopback()
	if err != nil {
		return nil, err
	}
	defer lb.close()
	ingestMS, err := liveCycle(cfg, ev, lb, t, ev.seconds/3)
	if err != nil {
		return nil, err
	}
	set("client.ingest_p50_ms", median(ingestMS), "ms")
	lb.handler.Store(&h)
	res, checked, bad := serveHotReads(ev, lb, eng, ref, ev.seconds/4, ev.reqSeed+3)
	t.attempted += int64(checked)
	t.failed += int64(bad)
	var reads, late []float64
	for _, o := range res.outcomes {
		t.add(o.ok)
		if o.kind == kindSnapshot {
			reads = append(reads, o.latencyMS())
		}
		late = append(late, o.lateMS())
	}
	rd := summarize(reads)
	set("client.read_p50_ms", rd.P50, "ms")
	set("client.read_p99_ms", rd.Tail, "ms")
	set("client.late_p99_ms", summarize(late).Tail, "ms")
	set("client.backlog_max", float64(maxOf(res.backlog)), "count")
	fmt.Fprintf(ev.log, "hot reads at %d/s: %d reads, p50 %.3f ms, p%.1f %.3f ms\n", hotRate, rd.N, rd.P50, 100*rd.TailQ, rd.Tail)
	set("client.max_rps", runLadder(ev, lb, n, t), "1/s")

	lruHits, lruMisses := counter("stream_snapshot_lru_hits_total")-lruHit0, counter("stream_snapshot_lru_misses_total")-lruMiss0
	hits, misses := counter("stream_render_cache_hits_total")-hit0, counter("stream_render_cache_misses_total")-miss0
	set("snapshot.lru_hit_ratio", ratio(lruHits, lruHits+lruMisses), "ratio")
	set("snapshot.rebuilds", float64(lruMisses), "count")
	set("server.render_cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	set("server.singleflight_waits", float64(counter("stream_singleflight_dedup_total")-sf0), "count")
	fmt.Fprintf(ev.log, "spans held: %d; request-log bytes: %d\n", len(walks[0].tr.spans)+len(walks[1].tr.spans), sink.n.Load())
	for _, w := range walks {
		printSpans(ev, w)
	}
	return out, nil
}

// printSpans writes one walk's per-layer totals and glue.
func printSpans(ev env, w *walk) {
	covered := 0.0
	for _, l := range layers {
		d := w.tr.total(l)
		covered += d
		fmt.Fprintf(ev.log, "  %-9s %8.1f ms\n", l, 1000*d)
	}
	fmt.Fprintf(ev.log, "  %-9s %8.1f ms of %.1f ms wall\n", "glue", 1000*(w.wall-covered), 1000*w.wall)
}

// ingestOnce generates the study and assembles every epoch, returning
// the wall time in seconds.
func ingestOnce(cfg cloudwatch.StreamConfig) (float64, error) {
	start := time.Now()
	es, err := core.GenerateEpochs(cfg.Study, cfg.Epochs)
	if err != nil {
		return 0, err
	}
	inc := es.Incremental()
	for p := 0; p < es.NumEpochs(); p++ {
		if _, err := inc.Advance(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// onFirst alternates the instrumented and bare halves of a pair,
// swapping which runs first from pair to pair: on, off, off, on, on,
// off.
func onFirst(i int) bool { return (i%2 == 0) == (i/2%2 == 0) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// medianTiming returns the median duration of reps calls of f, in
// seconds.
func medianTiming(reps int, f func()) float64 {
	v := make([]float64, reps)
	for i := range v {
		start := time.Now()
		f()
		v[i] = time.Since(start).Seconds()
	}
	return median(v)
}

// runLadder offers hot reads at each rung of the ladder for a fixed
// time and returns the highest rate meeting the p99 limit without a
// growing backlog, interpolated between the last passing and the first
// failing rung.
func runLadder(ev env, lb *loopback, n int, t *tally) float64 {
	rng := rand.New(rand.NewSource(ev.reqSeed + 1))
	rung := max(time.Second, ev.seconds/10)
	prevRate, prevP99 := 0.0, 0.0
	for _, rate := range ladder {
		schedule := poissonSchedule(rng, rate, rung, readMix(rng, 0))
		res := runOpenLoop(schedule, ev.senders, func(c *http.Client, req request, buf *bytes.Buffer) bool {
			switch req.kind {
			case kindStatus:
				return get(c, lb.base+"/v1/status", buf)
			case kindHealthz:
				return get(c, lb.base+"/healthz", buf)
			default:
				return get(c, fmt.Sprintf("%s/v1/snapshot/%d/%s", lb.base, 1+int(req.u*float64(n)), experiments[req.choice]), buf)
			}
		})
		var lat []float64
		failed := false
		for _, o := range res.outcomes {
			t.add(o.ok)
			failed = failed || !o.ok
			lat = append(lat, o.latencyMS())
		}
		p99 := summarize(lat).Tail
		growing := backlogGrowing(res.backlog, ev.senders)
		fmt.Fprintf(ev.log, "rung %6.0f/s: p99 %.2f ms, backlog growing=%v\n", rate, p99, growing)
		if failed || growing || p99 > p99Limit {
			if !growing && !failed && p99 > prevP99 {
				// Interpolate where the tail crosses the limit.
				return prevRate + (rate-prevRate)*(p99Limit-prevP99)/(p99-prevP99)
			}
			return prevRate
		}
		prevRate, prevP99 = rate, p99
	}
	return prevRate
}

// liveRate is the offered read rate of the live cycle, in requests per
// second.
const liveRate = 400

// ingestReply is the part of a POST /v1/ingest response the checks read.
type ingestReply struct {
	Prefix int  `json:"prefix"`
	Done   bool `json:"done"`
}

// liveCycle serves reads while the epochs of a fresh engine arrive
// through POST /v1/ingest, evenly spread over window: every ingest
// makes the newest prefix's keys miss the render cache under load, so
// the singleflight and snapshot paths run. Reads are skewed to the
// newest prefix and include a share of single-prefix sweeps. The sweep
// share and the skew are assumptions, like the mix parameters in
// serve.go.
func liveCycle(cfg cloudwatch.StreamConfig, ev env, lb *loopback, t *tally, window time.Duration) (ingestMS []float64, err error) {
	dir := filepath.Join(ev.work, "live")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	eng, err := cloudwatch.OpenStream(cfg, dir)
	t.add(err == nil)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer eng.Close()
	if _, _, err := eng.IngestNext(); err != nil {
		t.add(false)
		return nil, err
	}
	var live atomic.Int64
	live.Store(1)
	lb.attach(eng)

	n := eng.NumEpochs()
	rng := rand.New(rand.NewSource(ev.reqSeed + 2))
	schedule := poissonSchedule(rng, liveRate, window, readMix(rng, liveSweepShare))
	for k := 1; k < n; k++ {
		schedule = append(schedule, arrival{due: window * time.Duration(k) / time.Duration(n), req: request{kind: kindIngest}})
	}
	sort.SliceStable(schedule, func(i, j int) bool { return schedule[i].due < schedule[j].due })
	var mu sync.Mutex
	var ingested []int
	var smp sampler
	res := runOpenLoop(schedule, ev.senders, func(c *http.Client, req request, buf *bytes.Buffer) bool {
		cur := int(live.Load())
		switch req.kind {
		case kindIngest:
			resp, err := c.Post(lb.base+"/v1/ingest", "application/json", nil)
			if err != nil || drain(resp, buf) != nil || resp.StatusCode != http.StatusOK {
				return false
			}
			var ir ingestReply
			if json.Unmarshal(buf.Bytes(), &ir) != nil || ir.Done {
				return false
			}
			live.Store(int64(ir.Prefix))
			mu.Lock()
			ingested = append(ingested, ir.Prefix)
			mu.Unlock()
			return true
		case kindStatus:
			return get(c, lb.base+"/v1/status", buf)
		case kindHealthz:
			return get(c, lb.base+"/healthz", buf)
		case kindSweep:
			prefix := 1 + int(req.u*float64(cur))
			if !get(c, fmt.Sprintf("%s/v1/sweep?tables=table2&kmin=1&kmax=3&prefixes=%d", lb.base, prefix), buf) {
				return false
			}
			var sr struct {
				Renders int `json:"renders"`
			}
			return json.Unmarshal(buf.Bytes(), &sr) == nil && sr.Renders == 3
		default:
			if !get(c, fmt.Sprintf("%s/v1/snapshot/%d/%s", lb.base, newestSkewed(req.u, cur), experiments[req.choice]), buf) {
				return false
			}
			smp.offer(buf.Bytes())
			return true
		}
	})
	var lat []float64
	for _, o := range res.outcomes {
		t.add(o.ok)
		switch o.kind {
		case kindSnapshot:
			lat = append(lat, o.latencyMS())
		case kindIngest:
			ingestMS = append(ingestMS, o.latencyMS())
		}
	}
	// Every ingest must advance the prefix by exactly one.
	sort.Ints(ingested)
	t.add(len(ingested) == n-1)
	for k, p := range ingested {
		t.add(p == k+2)
	}
	checked, bad := smp.verify(eng, ev.log)
	t.attempted += int64(checked)
	t.failed += int64(bad)
	d := summarize(lat)
	fmt.Fprintf(ev.log, "live cycle: %d reads, p50 %.2f ms, p%.1f %.2f ms; ingests %.1f ms median; %d sampled bodies checked (%d bad)\n",
		d.N, d.P50, 100*d.TailQ, d.Tail, median(ingestMS), checked, bad)
	return ingestMS, nil
}

// liveSweepShare is the live cycle's share of single-prefix sweeps.
const liveSweepShare = 0.02

// newestSkewed maps a uniform draw to an ingested prefix, skewed to the
// newest: the newest with probability 0.6, each older one with 0.4
// times the probability of the one after it, the rest on prefix 1.
func newestSkewed(u float64, newest int) int {
	p := newest
	for edge := 0.6; u >= edge && p > 1; edge += (1 - edge) * 0.6 {
		p--
	}
	return p
}
