package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudwatch"
	"cloudwatch/internal/core"
)

// Request classes of the serving workloads.
const (
	kindSnapshot = iota
	kindStatus
	kindHealthz
	kindSweep
	kindIngest
)

// experiments are the Zipf ranks of the read mix: rank r is the r-th
// experiment in the order the program lists them (core.ExperimentNames),
// not a claimed popularity ranking.
var experiments = core.ExperimentNames()

// The parameters of the serving workloads' request mix. The shape —
// prefix uniform, experiment by Zipf, a small share of status and
// health checks — is the workload's definition; these values are
// assumptions, not measured traffic, because the repository holds no
// access data to take them from.
const (
	zipfS        = 1.2  // Zipf exponent over experiments
	statusShare  = 0.03 // share of GET /v1/status
	healthzShare = 0.03 // share of GET /healthz
)

// countingSink is the request-log sink the benchmark owns: the server
// formats every log line as in -serve mode, and the sink counts the
// bytes instead of writing them anywhere.
type countingSink struct{ n atomic.Int64 }

func (s *countingSink) Write(p []byte) (int, error) {
	s.n.Add(int64(len(p)))
	return len(p), nil
}

// loopback is an http.Server on a loopback port, configured like the
// CLI's -serve mode, whose handler can be swapped to a fresh
// cloudwatch.StreamServer between rounds.
type loopback struct {
	base    string
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	sink    countingSink
	served  chan error
}

func startLoopback() (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lb := &loopback{base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	lb.srv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*lb.handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { lb.served <- lb.srv.Serve(ln) }()
	return lb, nil
}

// attach serves eng from now on, through a new StreamServer whose
// request log goes to the benchmark's sink. A nil eng answers 503 and
// lets the previous engine go.
func (lb *loopback) attach(eng *cloudwatch.StreamEngine) {
	s := cloudwatch.NewStreamServer(eng)
	s.SetLogger(slog.New(slog.NewTextHandler(&lb.sink, nil)))
	h := s.Handler()
	lb.handler.Store(&h)
}

// close shuts the server down and waits for Serve to return.
func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := lb.srv.Shutdown(ctx)
	if serr := <-lb.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newClient returns a single-connection client for closed-loop calls
// outside the open loop (set-up, cache fill).
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   time.Minute,
	}
}

// snapshotBody is the part of a /v1/snapshot response the checks read.
type snapshotBody struct {
	Prefix     int    `json:"prefix"`
	Experiment string `json:"experiment"`
	Records    int    `json:"records"`
	Output     string `json:"output"`
}

// get fetches url and reports whether it answered 200, leaving the body
// in buf.
func get(c *http.Client, url string, buf *bytes.Buffer) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	return drain(resp, buf) == nil && resp.StatusCode == http.StatusOK
}

// sampler keeps a copy of every sampleEvery-th snapshot body for the
// post-run check against core.RenderExperiment. sampleEvery is prime so
// the sample does not lock onto a period of the request mix.
type sampler struct {
	mu     sync.Mutex
	seen   int
	bodies [][]byte
}

const sampleEvery = 97

func (s *sampler) offer(body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	if s.seen%sampleEvery == 1 {
		s.bodies = append(s.bodies, append([]byte(nil), body...))
	}
}

// verify checks every kept body against the engine's own snapshot,
// describes each mismatch on log, and returns how many bodies were
// checked and how many mismatched. Each (prefix, experiment) is
// rendered once, however many of its bodies were kept.
func (s *sampler) verify(eng *cloudwatch.StreamEngine, log io.Writer) (checked, bad int) {
	type key struct {
		prefix     int
		experiment string
	}
	renders := map[key]string{}
	for _, b := range s.bodies {
		checked++
		var sb snapshotBody
		if err := json.Unmarshal(b, &sb); err != nil {
			bad++
			fmt.Fprintf(log, "mismatch: undecodable snapshot body: %v\n", err)
			continue
		}
		snap, err := eng.Snapshot(sb.Prefix)
		if err != nil {
			bad++
			fmt.Fprintf(log, "mismatch: %d/%s: %v\n", sb.Prefix, sb.Experiment, err)
			continue
		}
		k := key{sb.Prefix, sb.Experiment}
		want, ok := renders[k]
		if !ok {
			want, ok = core.RenderExperiment(snap, sb.Experiment)
			if ok {
				renders[k] = want
			}
		}
		switch {
		case !ok:
			bad++
			fmt.Fprintf(log, "mismatch: %d/%s: unknown experiment\n", sb.Prefix, sb.Experiment)
		case sb.Records != snap.NumRecords():
			bad++
			fmt.Fprintf(log, "mismatch: %d/%s: served %d records, snapshot has %d\n", sb.Prefix, sb.Experiment, sb.Records, snap.NumRecords())
		case want != sb.Output:
			bad++
			fmt.Fprintf(log, "mismatch: %d/%s: served output differs from RenderExperiment on the engine's snapshot\n%s\n", sb.Prefix, sb.Experiment, firstDiff(sb.Output, want))
		}
	}
	return checked, bad
}

// firstDiff shows the first line where served and want differ.
func firstDiff(served, want string) string {
	a, b := strings.Split(served, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(a) || i < len(b); i++ {
		var x, y string
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			return fmt.Sprintf("  line %d served: %q\n  line %d render: %q", i+1, x, i+1, y)
		}
	}
	return "  (no line differs)"
}

// poissonSchedule draws arrivals at the given mean rate over dur, each
// request chosen by pick.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, pick func() request) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, arrival{due: due, req: pick()})
	}
}

// readMix picks the serving workloads' read requests: snapshot reads
// with the experiment drawn by Zipf, a share of status and health
// checks, and optionally a share of single-prefix sweeps.
func readMix(rng *rand.Rand, sweepShare float64) func() request {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(experiments)-1))
	return func() request {
		r := request{kind: kindSnapshot, u: rng.Float64(), choice: int(zipf.Uint64())}
		switch x := rng.Float64(); {
		case x < statusShare:
			r.kind = kindStatus
		case x < statusShare+healthzShare:
			r.kind = kindHealthz
		case x < statusShare+healthzShare+sweepShare:
			r.kind = kindSweep
		}
		return r
	}
}

// fillCache requests every (prefix, experiment) key once, two at a
// time, so every later read of the grid is a render-cache hit.
func fillCache(lb *loopback, prefixes int, senders int) error {
	type key struct {
		prefix     int
		experiment string
	}
	keys := make(chan key)
	errs := make(chan error, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var buf bytes.Buffer
			var failed error
			for k := range keys {
				if failed == nil && !get(c, fmt.Sprintf("%s/v1/snapshot/%d/%s", lb.base, k.prefix, k.experiment), &buf) {
					failed = fmt.Errorf("cache fill: %d/%s failed", k.prefix, k.experiment)
				}
			}
			errs <- failed
		}()
	}
	for p := 1; p <= prefixes; p++ {
		for _, name := range core.ExperimentNames() {
			keys <- key{p, name}
		}
	}
	close(keys)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
