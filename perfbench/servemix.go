package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gsched"
	"gsched/internal/progen"
	"gsched/internal/serve"
)

// serve_mix: the gschedd binary under /schedule traffic, open loop at
// fixed rates and closed loop at saturation — the only workload with
// HTTP, JSON, the request front end, content-key hashing, the store
// tiers and single-flight. The mix has a
// zipf-skewed hot corpus (memory hits), a warm corpus written to the
// disk tier during set-up and larger than the memory cap (disk hits,
// promoted and later evicted again), fresh programs (misses that
// schedule and write both tiers) and a share of identical fresh
// requests posted at the same instant (single-flight). Hits read and
// misses write the same store, so a gain on one path that costs the
// other shows as its own metric.

// serveSizes scales the workload.
type serveSizes struct {
	hot, warm int
	refRate   float64       // offered req/s of the reference step
	refDur    time.Duration // reference step length
	ladder    []float64     // higher offered rates, req/s
	stepDur   time.Duration // length of each ladder step
	satPart   float64       // requests per part of the saturation phase
}

func serveSizing(cfg *config) serveSizes {
	sec := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.tiny {
		return serveSizes{hot: 8, warm: 40, refRate: 100, refDur: sec * 6 / 10,
			ladder: []float64{200, 400}, stepDur: sec / 5, satPart: 40}
	}
	// The reference rate is about 30% of the capacity the ladder
	// measured on a shared 2-vCPU machine (max_ok_rps: median 654 req/s
	// over twenty runs, 600 to 925), so requests rarely queue and its
	// latencies show service time. The ladder climbs from 600 req/s in
	// steps of 2^(1/8) (about 9%), so a run whose capacity sits on a
	// step boundary moves max_ok_rps by one small step. A capacity below
	// the ladder reports the reference rate.
	var ladder []float64
	for k := 0; k <= 14; k++ {
		ladder = append(ladder, 600*math.Pow(2, float64(k)/8))
	}
	// The hot corpus (32 programs of about 4 KB each) fits well inside
	// the 1 MiB memory cap; the warm one (about 5 MB) is far above it.
	return serveSizes{hot: 32, warm: 1200, refRate: 200, refDur: sec * 2 / 5,
		ladder: ladder, stepDur: sec * 37 / 1000, satPart: 700}
}

// The saturation phase runs in serveSatParts parts, each serveSettle
// after the traffic before it stopped and after serveCalRounds
// calibration rounds.
const (
	serveSatParts  = 6
	serveCalRounds = 6
	serveSettle    = 300 * time.Millisecond
	serveCalTrips  = 300
)

const (
	// serveLimit is the latency limit every outcome's p99 must meet for
	// a step's offered rate to count towards max_ok_rps.
	serveLimit = 100 * time.Millisecond
	// serveGrowth is how much the generator's median lateness may rise
	// from the first to the last fifth of a step before the backlog
	// counts as growing.
	serveGrowth = serveLimit / 10
)

// The program shape: 100 to 250 instructions (about 165 on average), so
// a miss costs a few milliseconds of scheduling and a response body is
// about 4 KB. The band keeps rare outsized programs, whose misses would
// dominate every tail, from making the tails depend on the seed.
var serveProgSize = progen.Size{Stmts: 3, Depth: 3, Loops: true, Floats: true, Helper: true, Arrays: 2}

const serveMinInstrs, serveMaxInstrs = 100, 250

// scheduleRequest is the /schedule body. Every field that changes the
// work is sent explicitly, so a change of server defaults cannot
// change the workload.
type scheduleRequest struct {
	Lang     string `json:"lang"`
	Source   string `json:"source"`
	Machine  string `json:"machine"`
	Level    string `json:"level"`
	Pipeline bool   `json:"pipeline"`
	Verify   bool   `json:"verify"`
}

// serveCorpus holds every program the run posts; indices are stable.
type serveCorpus struct {
	seen    map[string]bool
	sources []string
	bodies  [][]byte
}

// add generates a new program from rng and returns its index.
func (c *serveCorpus) add(rng *rand.Rand) int {
	for {
		src := progen.NewSized(rng.Int63(), serveProgSize).Source
		if c.seen[src] || !inBand(src) {
			continue
		}
		c.seen[src] = true
		b, err := json.Marshal(scheduleRequest{Lang: "c", Source: src, Machine: "rs6k",
			Level: "speculative", Pipeline: true, Verify: false})
		if err != nil {
			panic(err) // a struct of strings and bools always marshals
		}
		c.sources = append(c.sources, src)
		c.bodies = append(c.bodies, b)
		return len(c.sources) - 1
	}
}

// inBand reports whether src compiles to serveMinInstrs..serveMaxInstrs
// instructions.
func inBand(src string) bool {
	prog, err := gsched.CompileC(src)
	if err != nil {
		return false
	}
	n := 0
	for _, f := range prog.Funcs {
		n += f.NumInstrs()
	}
	return n >= serveMinInstrs && n <= serveMaxInstrs
}

func (c *serveCorpus) addN(rng *rand.Rand, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = c.add(rng)
	}
	return out
}

// daemon is one running gschedd.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	log  *tailBuffer
	done bool
}

// tailBuffer keeps the last 64 KiB written to it. It holds a daemon's
// request log, read only in error messages; keeping the log in memory
// keeps a write per request off the shared disk.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailMax = 64 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 2*tailMax {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailMax:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.buf
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(bytes.TrimSpace(b))
}

func gscheddArgs(cfg *config, cacheDir, addr string) []string {
	n := strconv.Itoa(cfg.nproc)
	return []string{"-addr", addr, "-workers", n, "-queue", strconv.Itoa(2 * cfg.nproc),
		"-cache-mb", "1", "-cache-dir", cacheDir, "-disk-mb", "64", "-timeout", "30s", "-log-json=true"}
}

// startDaemon execs gschedd and waits for its first 200 on /healthz; it
// returns the time from exec to that answer.
func startDaemon(cfg *config, cacheDir string) (*daemon, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(filepath.Join(cfg.bin, "gschedd"), gscheddArgs(cfg, cacheDir, addr)...)
	log := &tailBuffer{}
	cmd.Stderr = log
	cmd.SysProcAttr = orphanKill()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, log: log}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for time.Since(start) < 20*time.Second {
		resp, err := probe.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	d.kill()
	return nil, 0, fmt.Errorf("gschedd not healthy after 20s: %s", log)
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if d.done {
		return nil
	}
	d.done = true
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("gschedd exit: %w: %s", err, d.log)
	}
	return nil
}

// peakRSS reads a live process's VmHWM (KiB) from /proc rather than
// from the exit rusage: Linux folds the spawning process's peak RSS into
// a child's ru_maxrss, so that figure can never read below this
// process's.
func peakRSS(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(v); len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTime reads a live process's user+system CPU time from /proc. The
// kernel counts it in clock ticks of 10 ms (USER_HZ 100).
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at the state,
	// field 3; utime and stime are fields 14 and 15.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// kill ends the daemon on error paths.
func (d *daemon) kill() {
	if d.done {
		return
	}
	d.done = true
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// serveStep is one fixed offered rate.
type serveStep struct {
	id       int // seeds the step's arrivals
	rate     float64
	dur      time.Duration
	arrs     []arrival
	outs     []outcome
	complete bool // every arrival was sent
	ok       bool
	why      string
	retry    *serveStep // the repeat run if this ladder step fails
	repeat   bool       // this is such a repeat
}

// judge decides whether the step met the limit without a growing
// backlog. Failed requests count as over the limit.
func (s *serveStep) judge() {
	s.ok, s.why = false, ""
	if !s.complete {
		s.why = "abandoned: the generator fell behind"
		return
	}
	if len(s.outs) < 10 {
		s.why = "too few requests"
		return
	}
	byClass := map[string][]float64{}
	for i := range s.outs {
		o := &s.outs[i]
		if !o.ok() {
			s.why = "a request failed"
			return
		}
		byClass[o.cache] = append(byClass[o.cache], ms(o.latency()))
	}
	for class, lat := range byClass {
		q := tailQ(len(lat), 0.99)
		if q == 0 {
			q = 1
		}
		if v := quantile(lat, q); v > ms(serveLimit) {
			s.why = fmt.Sprintf("%s p%.4g %.1fms over the limit", class, 100*q, v)
			return
		}
	}
	k := len(s.outs) / 5
	late := func(os []outcome) float64 {
		xs := make([]float64, len(os))
		for i := range os {
			xs[i] = ms(os[i].lateness())
		}
		return median(xs)
	}
	if g := late(s.outs[len(s.outs)-k:]) - late(s.outs[:k]); g > ms(serveGrowth) {
		s.why = fmt.Sprintf("lateness grew %.1fms", g)
		return
	}
	s.ok = true
}

func runServeMix(cfg *config) (*result, error) {
	res := &result{}
	sz := serveSizing(cfg)
	corpus := &serveCorpus{seen: map[string]bool{}}
	crng := rand.New(rand.NewSource(cfg.seed))
	hot := corpus.addN(crng, sz.hot)
	warm := corpus.addN(crng, sz.warm)
	warmOrder := append([]int(nil), warm...)
	crng.Shuffle(len(warmOrder), func(i, j int) { warmOrder[i], warmOrder[j] = warmOrder[j], warmOrder[i] })
	tr := &traffic{seed: cfg.seed, hot: hot, warm: warmOrder, corpus: corpus}

	// The ladder, which follows the reference step; a failing ladder
	// step is repeated once. Each step's arrivals are drawn just before
	// it runs.
	var steps []*serveStep
	for i, m := range sz.ladder {
		s := &serveStep{id: 2*i + 1, rate: m, dur: sz.stepDur}
		s.retry = &serveStep{id: 2*i + 2, rate: s.rate, dur: sz.stepDur, repeat: true}
		steps = append(steps, s)
	}

	cacheDir := filepath.Join(cfg.work, "cache")

	// first[p] is program p's first response body; every later response
	// for p must be byte-identical to it.
	first := make(map[int]*outcome)
	keepFirst := func(progs []int, outs []outcome) {
		for i := range outs {
			if _, ok := first[progs[i]]; !ok {
				first[progs[i]] = &outs[i]
			}
		}
	}

	// Set-up 1: write the warm corpus to the disk tier through a daemon
	// that is then stopped.
	d, _, err := startDaemon(cfg, cacheDir)
	if err != nil {
		return nil, err
	}
	popOuts, err := newLoadgen(d.url+"/schedule", corpus, cfg.nproc).closedLoop(warm)
	if err == nil {
		err = d.stop()
	}
	if err != nil {
		d.kill()
		return nil, err
	}
	keepFirst(warm, popOuts)
	// Flush the populated tier now, so the kernel's delayed writeback of
	// it does not land in the timed window.
	syscall.Sync()

	// Set-up 2: exec to healthy with the disk tier populated, so the
	// recovery scan is included; setupRuns times, the last one serves.
	// serve_mix's calibration adds loopback round trips to the task:
	// a request's time is about half computation and half the kernel's
	// network path and wake-ups.
	cal := &calibrator{par: cfg.nproc, trips: serveCalTrips}
	defer cal.close()
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if err := cal.round(); err != nil {
			return nil, err
		}
		var took time.Duration
		if d, took, err = startDaemon(cfg, cacheDir); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRuns-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.kill()
	g := newLoadgen(d.url+"/schedule", corpus, cfg.nproc)
	defer g.close()
	hotOuts, err := g.closedLoop(hot)
	if err != nil {
		return nil, err
	}
	keepFirst(hot, hotOuts)

	var before map[string]float64
	if cfg.trace {
		if before, err = serve.Scrape(d.url + "/metrics"); err != nil {
			return nil, err
		}
	}

	// The timed window: the reference step, the saturation phase, then
	// the ladder upwards until a step misses the limit.
	var ran []*serveStep
	runStep := func(s *serveStep) {
		s.arrs = tr.step(s.id, s.rate, s.dur)
		outs, sent := g.run(s.arrs, func(i int) bool { return first[s.arrs[i].prog] == nil })
		s.outs, s.complete = outs, sent == len(s.arrs)
		s.arrs = s.arrs[:sent]
		keepFirst(progsOf(s.arrs), s.outs)
		s.judge()
		ran = append(ran, s)
	}
	ref := &serveStep{id: 0, rate: sz.refRate, dur: sz.refDur}
	runStep(ref)

	// The saturation phase gives the end-to-end times: the same mix,
	// posted closed loop over nproc connections, in serveSatParts parts
	// of about sz.satPart requests. Before each part gschedd settles
	// (finishes its collection and disk writes) and the calibration runs.
	sat := &serveStep{id: -1}
	var satWalls []float64
	var satCPU time.Duration
	for k := 0; k < serveSatParts; k++ {
		time.Sleep(serveSettle)
		for j := 0; j < serveCalRounds; j++ {
			if err := cal.round(); err != nil {
				return nil, err
			}
		}
		arrs := tr.step(-1-k, sz.satPart, time.Second)
		progs := progsOf(arrs)
		cpu0, err := cpuTime(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		outs := g.burst(progs, func(i int) bool { return first[progs[i]] == nil })
		wall := time.Since(start)
		cpu1, err := cpuTime(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		keepFirst(progs, outs)
		satWalls = append(satWalls, ms(wall)/float64(len(progs)))
		satCPU += cpu1 - cpu0
		sat.arrs = append(sat.arrs, arrs...)
		sat.outs = append(sat.outs, outs...)
	}
	// Peak RSS is read here, before the ladder: how far the ladder
	// climbs into overload, and so how much it queues, varies by run.
	rssKiB, err := peakRSS(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	for _, s := range steps {
		if !ran[len(ran)-1].ok {
			break
		}
		runStep(s)
		if !s.ok && s.retry != nil {
			// A failing ladder step is repeated once, on its own
			// schedule, so one transient stall does not end the climb.
			runStep(s.retry)
		}
	}
	if cfg.inject && len(ran[0].outs) > 0 {
		o := &ran[0].outs[0]
		o.sum[0] ^= 1
		if o.body != nil {
			o.body[0] ^= 1
		}
	}

	var rtt []float64
	var after map[string]float64
	if cfg.trace {
		if after, err = serve.Scrape(d.url + "/metrics"); err != nil {
			return nil, err
		}
		rtt = healthzRTT(d.url, cfg.nproc, 300)
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	// Output checks: every response 200 and byte-identical to the
	// program's first one, and every program's asm equal to the root
	// API's for the same source and options.
	bad := checkServed(corpus, first)
	var sent int
	for _, s := range append([]*serveStep{sat}, ran...) {
		for i := range s.outs {
			o := &s.outs[i]
			p := s.arrs[i].prog
			res.attempted++
			sent++
			var why string
			switch {
			case !o.ok():
				why = fmt.Sprintf("status %d: %v", o.status, o.err)
			case o.sum != first[p].sum:
				why = "body differs from the program's first response"
			case bad[p] != nil:
				why = bad[p].Error()
			default:
				continue
			}
			res.failed++
			if res.failed <= 5 {
				res.note("request for program %d: %s", p, why)
			}
		}
	}

	maxOK := 0.0
	for _, s := range ran {
		counts := map[string]int{}
		for i := range s.outs {
			counts[s.outs[i].cache]++
		}
		verdict := "ok"
		if !s.ok {
			verdict = "FAIL: " + s.why
		} else {
			maxOK = s.rate
		}
		again := ""
		if s.repeat {
			again = " again"
		}
		res.note("step %6.0f req/s%s: %5d sent (hit %d, disk %d, miss %d), %s",
			s.rate, again, len(s.outs), counts["hit"], counts["disk"], counts["miss"], verdict)
	}

	addLatencies(res, ref)
	if maxOK == 0 {
		res.skip("max_ok_rps", "req/s", len(ran))
	} else {
		res.add("max_ok_rps", "req/s", maxOK, len(ran))
	}
	if cfg.trace {
		return traceServe(cfg, res, corpus, ref, before, after, rtt, sent)
	}
	cal.note(res)
	res.addSetup(setups, cal)
	res.add("peak_rss_mib", "MiB", float64(rssKiB)/1024, 1)
	if n := len(sat.outs); n > 0 {
		res.note("saturation: %d requests in %d parts; raw wall per request p25 %.3f, p50 %.3f, p75 %.3f ms; raw gschedd CPU per request %.3f ms",
			n, len(satWalls), quantile(satWalls, 0.25), median(satWalls), quantile(satWalls, 0.75), ms(satCPU)/float64(n))
		res.add("wall_ms", "ms", median(satWalls)*cal.wallScale(), n)
		res.add("cpu_ms", "ms", ms(satCPU)/float64(n)*cal.cpuScale(), n)
	}
	return res, nil
}

// addLatencies reports each outcome's p50 and p99 at the reference
// rate. Like max_ok_rps they are per-layer metrics (the p99s report
// only), listed but not gated by the end-to-end run. On a shared 2-vCPU
// machine CPU steal comes in phases of minutes that multiply a short
// request's latency, so over ten runs their spread (0.09 to 0.20 of the
// median for the p50s, 0.17 to 0.41 for the p99s, 0.17 to 0.18 for
// max_ok_rps) nears or passes the widest regression bound allowed.
func addLatencies(res *result, ref *serveStep) {
	for _, class := range []string{"hit", "disk", "miss"} {
		for _, p := range []struct {
			name string
			q    float64
		}{{class + "_p50_ms", 0.5}, {class + "_p99_ms", 0.99}} {
			lat := ref.latencies(class)
			if supports(len(lat), p.q) {
				res.add(p.name, "ms", quantile(lat, p.q), len(lat))
			} else {
				res.skip(p.name, "ms", len(lat))
			}
		}
	}
}

func progsOf(arrs []arrival) []int {
	out := make([]int, len(arrs))
	for i, a := range arrs {
		out[i] = a.prog
	}
	return out
}

// latencies returns the latencies (ms) of successful responses with
// the given X-Cache state, or of every successful response for "".
func (s *serveStep) latencies(cache string) []float64 {
	var out []float64
	for i := range s.outs {
		if o := &s.outs[i]; o.ok() && (cache == "" || o.cache == cache) {
			out = append(out, ms(o.latency()))
		}
	}
	return out
}

// checkServed compares each program's first response with the root
// API's schedule of the same source under the same options; it returns
// the programs that failed and why.
func checkServed(corpus *serveCorpus, first map[int]*outcome) map[int]error {
	progs := make(chan int)
	var mu sync.Mutex
	bad := make(map[int]error)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range progs {
				if err := checkOne(corpus.sources[p], first[p]); err != nil {
					mu.Lock()
					bad[p] = err
					mu.Unlock()
				}
			}
		}()
	}
	for p := range first {
		progs <- p
	}
	close(progs)
	wg.Wait()
	return bad
}

func checkOne(src string, o *outcome) error {
	if !o.ok() {
		return fmt.Errorf("first response: status %d: %v", o.status, o.err)
	}
	var resp struct {
		Asm string `json:"asm"`
	}
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return fmt.Errorf("response body: %w", err)
	}
	want, err := rootSchedule(src)
	if err != nil {
		return err
	}
	if resp.Asm != want {
		return fmt.Errorf("served asm differs from the root API's")
	}
	return nil
}

// serveOptions are the scheduling options a pinned /schedule request
// resolves to.
func serveOptions() gsched.Options {
	o := gsched.Defaults(gsched.RS6K(), gsched.LevelSpeculative)
	o.Verify = false
	o.Parallelism = 1
	return o
}

// rootSchedule is the root API's answer for a /schedule request.
func rootSchedule(src string) (string, error) {
	prog, err := gsched.CompileC(src)
	if err != nil {
		return "", err
	}
	if _, err := gsched.SchedulePipeline(prog, serveOptions(), gsched.DefaultPipeline()); err != nil {
		return "", err
	}
	return gsched.PrintAsm(prog), nil
}

// healthzRTT times /healthz round trips from conns concurrent clients.
func healthzRTT(url string, conns, each int) []float64 {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
	defer client.CloseIdleConnections()
	out := make([][]float64, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				start := time.Now()
				resp, err := client.Get(url + "/healthz")
				if err != nil {
					continue
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				out[c] = append(out[c], us(time.Since(start)))
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for _, xs := range out {
		all = append(all, xs...)
	}
	return all
}
