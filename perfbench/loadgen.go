package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// The open-loop load generator: requests are due on a fixed schedule
// derived from the seed, whether or not earlier ones have finished, so
// a stall delays every later request instead of slowing the offered
// load. At most conns requests are in flight (one per connection); a
// request due while every connection is busy waits, and that wait is
// counted: latency runs from when a request was due, not from when it
// was sent, and lateness (sent − due) is reported for the generator.

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // offset from the start of its step
	prog int           // corpus index of the program to post
}

// outcome is what happened to one arrival.
type outcome struct {
	due, sent, done time.Time
	status          int
	cache           string // X-Cache: hit, disk or miss
	sum             [sha256.Size]byte
	body            []byte // kept only for a program's first response
	err             error
}

func (o *outcome) latency() time.Duration  { return o.done.Sub(o.due) }
func (o *outcome) lateness() time.Duration { return o.sent.Sub(o.due) }
func (o *outcome) ok() bool                { return o.err == nil && o.status == http.StatusOK }

// traffic draws a step's arrivals at rate req/s for dur, each arrival's
// program chosen by the mix. Gaps between arrivals are Erlang-4
// distributed: random, with a coefficient of variation of 0.5 where
// Poisson's is 1, so the tail latency at a fixed rate depends less on
// the bursts one seed happens to draw. Every step draws from its own
// stream, seeded by the run's seed and the step's id, so a step's
// schedule is the same whichever steps ran before it.
type traffic struct {
	seed   int64
	hot    []int // corpus indices, zipf-ranked
	warm   []int // corpus indices, in a seeded order
	corpus *serveCorpus
}

// Mix shares of arrival events. They follow the repository's own
// traffic model, serve.Load with Zipf set: half the events repeat a
// zipf-1.2-skewed corpus and half post a program never sent before. The
// split within each half is this benchmark's choice, not a measurement:
// the repeated half is divided evenly between the hot corpus (memory
// hits) and the warm corpus on disk (disk hits), and one unique event in
// ten is a pair, which posts one fresh program twice at the same instant
// so that identical misses meet in flight (single-flight).
const (
	shareHot   = 0.25
	shareWarm  = 0.25
	shareFresh = 0.45
)

func (t *traffic) step(id int, rate float64, dur time.Duration) []arrival {
	rng := rand.New(rand.NewSource(t.seed*1_000_003 + int64(id)))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(t.hot)-1))
	// Warm requests walk the warm corpus from a seeded offset, so a
	// warm program comes back only after every other one has.
	warmPos := rng.Intn(len(t.warm))
	var out []arrival
	at := 0.0
	for {
		at += (rng.ExpFloat64() + rng.ExpFloat64() + rng.ExpFloat64() + rng.ExpFloat64()) / (4 * rate)
		d := time.Duration(at * float64(time.Second))
		if d >= dur {
			return out
		}
		u := rng.Float64()
		switch {
		case u < shareHot:
			out = append(out, arrival{d, t.hot[zipf.Uint64()]})
		case u < shareHot+shareWarm:
			out = append(out, arrival{d, t.warm[warmPos%len(t.warm)]})
			warmPos++
		case u < shareHot+shareWarm+shareFresh:
			out = append(out, arrival{d, t.corpus.add(rng)})
		default:
			p := t.corpus.add(rng)
			out = append(out, arrival{d, p}, arrival{d, p})
		}
	}
}

// loadgen posts corpus bodies to one /schedule URL.
type loadgen struct {
	client *http.Client
	url    string
	corpus *serveCorpus // request bodies by corpus index
	conns  int
	// maxLate abandons the rest of a step once the generator runs this
	// far behind: the backlog is already growing, so the step fails.
	maxLate time.Duration
}

func newLoadgen(url string, corpus *serveCorpus, conns int) *loadgen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadgen{
		client:  &http.Client{Transport: tr, Timeout: 60 * time.Second},
		url:     url,
		corpus:  corpus,
		conns:   conns,
		maxLate: 3 * time.Second,
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// post sends one body and fills o (sent, done, status, cache, digest).
// keep retains the body bytes.
func (g *loadgen) post(prog int, o *outcome, keep bool) {
	o.sent = time.Now()
	resp, err := g.client.Post(g.url, "application/json", bytes.NewReader(g.corpus.bodies[prog]))
	if err != nil {
		o.err, o.done = err, time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.err = err
	o.status = resp.StatusCode
	o.cache = resp.Header.Get("X-Cache")
	o.sum = sha256.Sum256(body)
	if keep {
		o.body = body
	}
}

// run sends arrs open loop from now. keep(i) says whether arrival i's
// body must be retained. It returns the outcomes (aligned with arrs)
// and how many arrivals were sent before the step was abandoned.
func (g *loadgen) run(arrs []arrival, keep func(int) bool) ([]outcome, int) {
	outs := make([]outcome, len(arrs))
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				g.post(arrs[i].prog, &outs[i], keep(i))
			}
		}()
	}
	start := time.Now()
	sent := 0
	for i, a := range arrs {
		due := start.Add(a.due)
		sleepUntil(due)
		outs[i].due = due
		work <- i
		sent++
		if time.Since(due) > g.maxLate {
			break
		}
	}
	close(work)
	wg.Wait()
	return outs[:sent], sent
}

// sleepUntil blocks until t. It sleeps in nanosleep(2) rather than on a
// runtime timer: the latter overshoots by up to a millisecond, which
// would add noise of the order of a cache hit's latency to every
// request's due-time clock.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// burst posts progs as fast as conns connections allow and returns
// the outcomes, aligned with progs. keep(i) says whether response i's
// body must be retained.
func (g *loadgen) burst(progs []int, keep func(int) bool) []outcome {
	outs := make([]outcome, len(progs))
	work := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				g.post(progs[i], &outs[i], keep(i))
			}
		}()
	}
	for i := range progs {
		work <- i
	}
	close(work)
	wg.Wait()
	return outs
}

// closedLoop posts progs as a burst (set-up traffic, not measured) and
// fails on the first unsuccessful response.
func (g *loadgen) closedLoop(progs []int) ([]outcome, error) {
	outs := g.burst(progs, func(int) bool { return true })
	for i := range outs {
		if !outs[i].ok() {
			return nil, fmt.Errorf("set-up request for program %d: status %d: %v: %s",
				progs[i], outs[i].status, outs[i].err, outs[i].body)
		}
	}
	return outs, nil
}
