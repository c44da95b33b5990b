package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"gsched"
	"gsched/internal/asm"
	"gsched/internal/core"
	"gsched/internal/serve"
)

// The serve_mix traced run reports two kinds of layer numbers: the
// server's own counters, as /metrics deltas over the timed window, and
// per-request timings of each layer's public functions, called from
// this process on the same request corpus.

// reqTrace accumulates the per-layer time of replayed requests; with
// on false nothing is timed.
type reqTrace struct {
	on                                        bool
	decode, resolve, canon, schedule, marshal []float64 // µs per request
	phases                                    core.Trace
}

func (tr *reqTrace) timed(acc *[]float64, fn func()) {
	if !tr.on {
		fn()
		return
	}
	t := time.Now()
	fn()
	*acc = append(*acc, us(time.Since(t)))
}

// replay runs one request's compute path in process — decode, resolve
// (CompileC), canonicalise+hash, and for a miss schedule and marshal —
// and returns the content key and, for a miss, the response body.
func replay(body []byte, miss bool, tr *reqTrace) (key serve.Key, out []byte, err error) {
	var req serve.Request
	tr.timed(&tr.decode, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return key, nil, err
	}
	var prog *gsched.Program
	tr.timed(&tr.resolve, func() { prog, err = gsched.CompileC(req.Source) })
	if err != nil {
		return key, nil, err
	}
	tr.timed(&tr.canon, func() {
		var buf bytes.Buffer
		asm.CanonicalTo(&buf, prog)
		key = sha256.Sum256(buf.Bytes())
	})
	if !miss {
		return key, nil, nil
	}
	opts := serveOptions()
	if tr.on {
		opts.Trace = &tr.phases
	}
	var st gsched.PipelineStats
	tr.timed(&tr.schedule, func() { st, err = gsched.SchedulePipeline(prog, opts, gsched.DefaultPipeline()) })
	if err != nil {
		return key, nil, err
	}
	tr.timed(&tr.marshal, func() { out, err = json.Marshal(&serve.Response{Asm: gsched.PrintAsm(prog), Stats: st}) })
	return key, out, err
}

// storeTimes times the store tiers' public operations on the replayed
// bodies: memory Get of resident keys, disk Put of new entries and disk
// Get of stored ones (in a temporary directory).
func storeTimes(dir string, keys []serve.Key, bodies [][]byte) (memGet, diskGet, diskPut []float64, err error) {
	mem := serve.NewCache(1 << 20)
	for i, k := range keys {
		mem.Put(k, bodies[i])
	}
	// One Get is far below the clock's resolution, so time batches.
	const batch = 200
	for _, k := range keys {
		start := time.Now()
		for j := 0; j < batch; j++ {
			mem.Get(k)
		}
		memGet = append(memGet, us(time.Since(start))/batch)
	}
	ds, err := serve.NewDiskStore(dir, 64<<20)
	if err != nil {
		return nil, nil, nil, err
	}
	defer ds.Close()
	ctx := context.Background()
	for i, k := range keys {
		start := time.Now()
		ds.Put(ctx, k, bodies[i])
		diskPut = append(diskPut, us(time.Since(start)))
	}
	for i, k := range keys {
		start := time.Now()
		got, ok := ds.Get(ctx, k)
		diskGet = append(diskGet, us(time.Since(start)))
		if !ok || !bytes.Equal(got, bodies[i]) {
			return nil, nil, nil, fmt.Errorf("disk store lost an entry")
		}
	}
	return memGet, diskGet, diskPut, nil
}

func traceServe(cfg *config, res *result, corpus *serveCorpus, ref *serveStep,
	before, after map[string]float64, rtt []float64, sent int) (*result, error) {

	delta := func(series string) float64 { return after[series] - before[series] }
	tier := func(name, t string) float64 { return delta(fmt.Sprintf("%s{tier=%q}", name, t)) }
	ratio := func(t string) {
		h, m := tier("gschedd_store_hits_total", t), tier("gschedd_store_misses_total", t)
		if h+m > 0 {
			res.add("serve.store."+t+".hit_ratio", "ratio", h/(h+m), int(h+m))
		}
	}
	ratio("memory")
	ratio("disk")
	res.add("serve.store.computes", "count", delta("gschedd_store_computes_total"), 1)
	res.add("serve.store.puts", "count",
		tier("gschedd_store_puts_total", "memory")+tier("gschedd_store_puts_total", "disk"), 1)
	res.add("serve.store.evictions", "count",
		tier("gschedd_store_evictions_total", "memory")+tier("gschedd_store_evictions_total", "disk"), 1)
	res.add("serve.singleflight_waits", "count", delta("gschedd_singleflight_waits_total"), 1)
	runs := delta("gschedd_schedule_runs_total")
	res.add("serve.schedule_runs", "count", runs, 1)
	if runs > 0 {
		for _, pm := range phaseMetrics {
			p := pm.phase.String()
			s := delta(fmt.Sprintf("gschedd_phase_seconds_total{phase=%q}", p))
			res.add("serve.phase."+p+"_ms_per_run", "ms", 1000*s/runs, int(runs))
		}
	}

	// Replay a sample of the corpus in process: every hot program and
	// as many warm and fresh ones, the fresh ones on the miss path.
	// Untraced and traced rounds alternate, each going first in every
	// other round.
	sz := serveSizing(cfg)
	fresh := sz.hot + sz.warm
	var sample []int
	for i := 0; i < sz.hot; i++ {
		for _, p := range []int{i, sz.hot + i, fresh + i} {
			if p < len(corpus.sources) {
				sample = append(sample, p)
			}
		}
	}
	traced := &reqTrace{on: true}
	var untracedRounds, tracedRounds []float64
	var keys []serve.Key
	var bodies [][]byte
	budget := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second) / 4))
	for round := 0; round < 3 || time.Now().Before(budget); round++ {
		order := []*reqTrace{{}, traced}
		if round%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, tr := range order {
			start := time.Now()
			for _, p := range sample {
				key, body, err := replay(corpus.bodies[p], p >= fresh, tr)
				if err != nil {
					return nil, fmt.Errorf("replay of program %d: %w", p, err)
				}
				if round == 0 && tr.on && body != nil {
					keys, bodies = append(keys, key), append(bodies, body)
				}
			}
			if tr.on {
				tracedRounds = append(tracedRounds, ms(time.Since(start)))
			} else {
				untracedRounds = append(untracedRounds, ms(time.Since(start)))
			}
		}
	}
	memGet, diskGet, diskPut, err := storeTimes(filepath.Join(cfg.work, "trace-disk"), keys, bodies)
	if err != nil {
		return nil, err
	}

	layer := func(name string, xs []float64) float64 {
		v := median(xs)
		res.add(name, "us", v, len(xs))
		return v
	}
	decode := layer("serve.json_decode_us", traced.decode)
	resolve := layer("minic.resolve_us", traced.resolve)
	canon := layer("asm.canon_hash_us", traced.canon)
	mget := layer("serve.store.memory_get_us", memGet)
	layer("serve.store.disk_get_us", diskGet)
	dput := layer("serve.store.disk_put_us", diskPut)
	sched := layer("serve.schedule_us", traced.schedule)
	marshal := layer("serve.marshal_us", traced.marshal)
	net := layer("http.rtt_us", rtt)
	front := net + decode + resolve + canon
	if lat := ref.latencies("hit"); len(lat) > 0 {
		res.add("hit.untraced_us", "us", 1000*median(lat)-(front+mget), len(lat))
	}
	if lat := ref.latencies("miss"); len(lat) > 0 {
		res.add("miss.untraced_us", "us", 1000*median(lat)-(front+sched+marshal+dput), len(lat))
	}
	var late []float64
	for i := range ref.outs {
		late = append(late, ms(ref.outs[i].lateness()))
	}
	if supports(len(late), 0.99) {
		res.add("loadgen.late_p99_ms", "ms", quantile(late, 0.99), len(late))
	} else {
		res.skip("loadgen.late_p99_ms", "ms", len(late))
	}
	res.add("loadgen.sent", "count", float64(sent), 1)
	res.add("trace.overhead_pct", "%", 100*(median(tracedRounds)/median(untracedRounds)-1), len(tracedRounds))
	return res, nil
}
