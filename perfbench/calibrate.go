package main

import (
	"crypto/sha256"
	"errors"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host's speed drifts between runs: on a shared machine a
// neighbour's load comes and goes in phases of minutes, and in a slow
// phase the same gsched invocation takes up to half as long again, in
// CPU time as well as wall time. A run cannot average such a phase out,
// so it measures the host too: a fixed calibration task, written here
// with the standard library only so no change to gsched moves it, runs
// between the operations, and the end-to-end times are scaled by how
// much slower than on the reference machine the calibration ran in the
// same run. The report lists the raw times and the calibration's.

// calRefWallMs and calRefCPUMs are about the calibration round's median
// wall time and CPU time per goroutine on the reference machine (2 vCPUs
// of an Intel Xeon at 2.1 GHz, shared) in a quiet phase, with one
// goroutine or two. They set only the scale of the reported times.
const (
	calRefWallMs = 30.0
	calRefCPUMs  = 30.0
)

// calTask is the calibration work: string formatting, a map, sorting,
// small allocations and hashing, the kinds of work gsched's parser,
// scheduler and printer do. It returns a digest so none of it is dead.
func calTask() byte {
	const n = 50000
	keys := make([]string, n)
	idx := make(map[string]int, n)
	x := uint64(88172645463325252)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = "r" + strconv.FormatUint(x%1000003, 10)
		idx[keys[i]] = i
	}
	type node struct {
		v    int
		next *node
	}
	var list *node
	for _, k := range keys {
		list = &node{v: idx[k], next: list}
	}
	sort.Strings(keys)
	h := sha256.New()
	for p := list; p != nil; p = p.next {
		h.Write([]byte(keys[p.v]))
	}
	return h.Sum(nil)[0]
}

// calibrator collects one run's calibration times.
type calibrator struct {
	par         int       // goroutines, as many as the operation's threads
	trips       int       // loopback round trips per goroutine and round
	walls, cpus []float64 // ms per round; CPU per goroutine
	sink        byte
	conns       []net.Conn // one per goroutine, for the round trips
	ln          net.Listener
}

// calTrip is the size of one loopback round trip's message, about a
// serve_mix request body.
const calTrip = 4096

// dial opens one loopback TCP connection per goroutine to an echo
// listener in this process.
func (c *calibrator) dial() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c.ln = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
			}()
		}
	}()
	for g := 0; g < c.par; g++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		c.conns = append(c.conns, conn)
	}
	return nil
}

// close ends the round trips' connections and listener.
func (c *calibrator) close() {
	for _, conn := range c.conns {
		conn.Close()
	}
	if c.ln != nil {
		c.ln.Close()
	}
}

// roundTrips sends and reads back n messages on conn.
func roundTrips(conn net.Conn, n int) error {
	buf := make([]byte, calTrip)
	for i := 0; i < n; i++ {
		if _, err := conn.Write(buf); err != nil {
			return err
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			return err
		}
	}
	return nil
}

// round runs the task once on each of c.par goroutines at once.
func (c *calibrator) round() error {
	if c.trips > 0 && c.conns == nil {
		if err := c.dial(); err != nil {
			return err
		}
	}
	// The garbage collector is off during a round, so a round's cost
	// does not depend on how much this process holds live (the
	// serve_mix corpus, the cli_huge input); it collects before and
	// after, untimed.
	runtime.GC()
	defer runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cpu0, err := selfCPU()
	if err != nil {
		return err
	}
	start := time.Now()
	var wg sync.WaitGroup
	out := make([]byte, c.par)
	errs := make([]error, c.par)
	for g := 0; g < c.par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = calTask()
			if c.trips > 0 {
				errs[g] = roundTrips(c.conns[g], c.trips)
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	wall := time.Since(start)
	cpu1, err := selfCPU()
	if err != nil {
		return err
	}
	for _, b := range out {
		c.sink ^= b
	}
	c.walls = append(c.walls, ms(wall))
	c.cpus = append(c.cpus, ms(cpu1-cpu0)/float64(c.par))
	return nil
}

// wallScale and cpuScale convert this run's wall and CPU times to the
// reference machine's speed. They use the median round: in a phase when
// the host takes a vCPU away now and then, the median slows with the
// operations, while the lower quartile (tried too) keeps the rounds that
// ran with both vCPUs and under-corrected cli_huge's wall time.
func (c *calibrator) wallScale() float64 { return calRefWallMs / median(c.walls) }
func (c *calibrator) cpuScale() float64  { return calRefCPUMs / median(c.cpus) }

// note lists the calibration in the report.
func (c *calibrator) note(res *result) {
	res.note("calibration (%d goroutines, %d rounds): wall p25 %.2f, p50 %.2f ms; CPU p25 %.2f, p50 %.2f ms; scales wall x%.4f, CPU x%.4f",
		c.par, len(c.walls), quantile(c.walls, 0.25), median(c.walls), quantile(c.cpus, 0.25), median(c.cpus), c.wallScale(), c.cpuScale())
}
