package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop load generator. Arrivals follow a schedule fixed before
// the run starts: a request is due at its offset whether or not the
// server has answered the ones before it, so a stall shows as queueing
// in the latency of every request due during it (latency is timed from
// the due time, not the send time — no coordinated omission). One
// dispatcher releases due requests to a fixed set of senders, each
// owning one connection.

// quantum is the dispatcher's shortest sleep. It wakes at most once per
// quantum and releases every request that has come due, instead of
// sleeping once per request: per-request sleeps at thousands of
// requests per second cost more scheduler work than the requests.
const quantum = time.Millisecond

// backlogEvery is how often the dispatcher samples the backlog of
// released requests no sender has picked up yet.
const backlogEvery = 20 * time.Millisecond

// arrival is one scheduled request.
type arrival struct {
	due time.Duration // offset from the start of the run
	req request
}

// request is what a sender sends; the workload decides its meaning.
type request struct {
	kind   int     // workload-defined request class
	u      float64 // a seeded uniform draw the workload may use at send time
	choice int     // a seeded categorical draw (e.g. the experiment)
}

// outcome is one finished request.
type outcome struct {
	kind     int
	due      time.Duration
	released time.Duration // when the dispatcher handed it to the senders
	done     time.Duration
	ok       bool
}

// latencyMS is the request's latency from its due time.
func (o outcome) latencyMS() float64 { return float64(o.done-o.due) / float64(time.Millisecond) }

// lateMS is how late the dispatcher released the request.
func (o outcome) lateMS() float64 { return float64(o.released-o.due) / float64(time.Millisecond) }

// sendFunc performs one request on a sender's client and reports
// whether its response was correct. body is a scratch buffer the sender
// reuses between requests.
type sendFunc func(c *http.Client, req request, body *bytes.Buffer) bool

// loadResult is what a run of the generator observed.
type loadResult struct {
	outcomes []outcome // in completion order per sender, senders concatenated
	backlog  []int     // released-but-unsent requests, every backlogEvery
}

// runOpenLoop plays the schedule (sorted by due) with the given number
// of senders, each with its own single-connection client, and returns
// once every request has completed.
func runOpenLoop(schedule []arrival, senders int, send sendFunc) loadResult {
	// The queue holds every released request no sender has picked up;
	// sized to the whole schedule so the dispatcher never blocks on a
	// slow server (that would close the loop).
	queue := make(chan int, len(schedule))
	released := make([]time.Duration, len(schedule))
	per := make([][]outcome, senders)
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			c := &http.Client{Transport: tr, Timeout: time.Minute}
			var body bytes.Buffer
			for i := range queue {
				a := schedule[i]
				ok := send(c, a.req, &body)
				per[s] = append(per[s], outcome{
					kind: a.req.kind, due: a.due, released: released[i],
					done: time.Since(start), ok: ok,
				})
			}
		}(s)
	}

	var backlog []int
	nextSample := time.Duration(0)
	for i := 0; i < len(schedule); {
		now := time.Since(start)
		for i < len(schedule) && schedule[i].due <= now {
			// released[i] is written before the channel send, which
			// orders it before the sender's read.
			released[i] = now
			queue <- i
			i++
		}
		if now >= nextSample {
			backlog = append(backlog, len(queue))
			nextSample = now + backlogEvery
		}
		if i < len(schedule) {
			time.Sleep(max(schedule[i].due-time.Since(start), quantum))
		}
	}
	close(queue)
	wg.Wait()

	var res loadResult
	for _, o := range per {
		res.outcomes = append(res.outcomes, o...)
	}
	res.backlog = backlog
	return res
}

// runClosedLoop sends n requests of seq, from index from on (wrapping
// around), back to back: each of the senders, with its own
// single-connection client, sends its next request as soon as its last
// one is answered. It returns the steal-free seconds the n requests
// took and how many of them failed.
func runClosedLoop(seq []request, from, n, senders int, send sendFunc) (secs float64, failed int) {
	var next, bad atomic.Int64
	var wg sync.WaitGroup
	start := markNow()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var body bytes.Buffer
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				if !send(c, seq[(from+int(i))%len(seq)], &body) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return start.since(), int(bad.Load())
}

// backlogGrowing reports whether the sampled backlog grew over the run:
// the last third of the samples averages more than twice the first
// third plus four requests per sender. A server that
// keeps up holds the backlog flat; one past its capacity accumulates
// the excess arrivals.
func backlogGrowing(samples []int, senders int) bool {
	if len(samples) < 3 {
		return false
	}
	third := len(samples) / 3
	mean := func(s []int) float64 {
		sum := 0
		for _, v := range s {
			sum += v
		}
		return float64(sum) / float64(len(s))
	}
	first, last := mean(samples[:third]), mean(samples[len(samples)-third:])
	return last > 2*first+float64(4*senders)
}

// drain reads a response body into buf and closes it.
func drain(resp *http.Response, buf *bytes.Buffer) error {
	buf.Reset()
	_, err := io.Copy(buf, resp.Body)
	resp.Body.Close()
	return err
}
