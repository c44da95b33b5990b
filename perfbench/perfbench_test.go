package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The self-test runs every workload at tiny size, end-to-end and
// traced, and checks that each prints every metric it owns with its
// unit and sample count; then it injects a wrong output into each
// workload and checks the run fails.

// metricNames lists, per workload, the end-to-end and per-layer metrics
// a run must measure; it prints the other declared ones as 0.
var metricNames = map[string][2][]string{
	"cli_huge": {
		{"setup_s", "wall_ms", "cpu_ms", "peak_rss_mib"},
		{"asm.prescan_ms", "asm.parse_ms", "rename.ms", "pdg.ms", "core.region_ms", "core.local_ms",
			"xform.transform_ms", "xform.run_ms", "xform.untraced_ms", "asm.print_ms", "untraced_ms",
			"asm.parse_allocs_per_instr", "xform.run_allocs_per_instr",
			"rename.webs", "core.regions_scheduled", "core.useful_moves", "core.speculative_moves",
			"xform.loops_unrolled", "xform.loops_rotated", "trace.overhead_pct"},
	},
	"paper_spec": {
		{"setup_s", "wall_ms", "cpu_ms", "peak_rss_mib"},
		{"minic.compile_ms", "opt.ms", "rename.ms", "pdg.ms", "core.region_ms", "core.local_ms",
			"xform.transform_ms", "xform.run_ms", "xform.untraced_ms", "asm.print_ms", "untraced_ms",
			"verify.overhead_pct", "trace.overhead_pct", "sim.speedup_geomean",
			"sim.cycles.li", "sim.cycles.eqntott", "sim.cycles.espresso", "sim.cycles.gcc",
			"rename.webs", "core.regions_scheduled", "core.useful_moves", "core.speculative_moves",
			"xform.loops_unrolled", "xform.loops_rotated"},
	},
	"serve_mix": {
		{"setup_s", "wall_ms", "cpu_ms", "peak_rss_mib"},
		{"serve.store.memory.hit_ratio", "serve.store.disk.hit_ratio", "serve.store.computes",
			"serve.store.puts", "serve.store.evictions", "serve.singleflight_waits",
			"serve.schedule_runs", "serve.phase.rename_ms_per_run",
			"serve.phase.pdg_ms_per_run", "serve.phase.region_ms_per_run", "serve.phase.local_ms_per_run",
			"serve.phase.xform_ms_per_run", "serve.json_decode_us", "minic.resolve_us", "asm.canon_hash_us",
			"serve.store.memory_get_us", "serve.store.disk_get_us", "serve.store.disk_put_us",
			"serve.schedule_us", "serve.marshal_us", "http.rtt_us", "hit.untraced_us", "miss.untraced_us",
			"loadgen.late_p99_ms", "loadgen.sent", "trace.overhead_pct",
			"hit_p50_ms", "disk_p50_ms", "miss_p50_ms", "max_ok_rps"},
	},
}

var binDir string

func TestMain(m *testing.M) {
	if os.Getenv(spawnEnv) != "" {
		os.Exit(runSpawner(os.Args[1:]))
	}
	if probe := os.Getenv(probeEnv); probe != "" {
		os.Exit(runProbe(probe))
	}
	dir, err := os.MkdirTemp("", "perfbench-bin")
	if err != nil {
		panic(err)
	}
	binDir = dir
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/gsched", "./cmd/gschedd")
	build.Dir = ".."
	build.Stderr = os.Stderr
	code := 1
	if build.Run() == nil {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// declaredMetrics reads the end_to_end and per_layer lists of the
// repository's BENCHMARK.json.
func declaredMetrics(t *testing.T) [2][]metricName {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var out [2][]metricName
	for i, list := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			out[i] = append(out[i], metricName{m.Name, m.Unit})
		}
	}
	return out
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	declared := declaredMetrics(t)
	for i, list := range [][]metricName{endToEnd, perLayer} {
		if !slices.Equal(list, declared[i]) {
			t.Errorf("mode %d: the program declares %v, BENCHMARK.json %v", i, list, declared[i])
		}
	}
}

func tinyRun(t *testing.T, workload string, trace, inject bool) (code int, stdout, stderr string) {
	t.Helper()
	cfg := &config{workload: workload, seed: 7, seconds: 1, trace: trace, bin: binDir,
		work: t.TempDir(), tiny: true, inject: inject, nproc: runtime.NumCPU()}
	if workload == "serve_mix" {
		cfg.seconds = 3
	}
	var out, errb bytes.Buffer
	code = run(cfg, &out, &errb)
	return code, out.String(), errb.String()
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, stdout string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last stdout line is not the result object: %v\n%s", err, stdout)
	}
	return r
}

func TestTinyRunsReportEveryMetric(t *testing.T) {
	declared := [2][]metricName{endToEnd, perLayer}
	for workload, sets := range metricNames {
		for mode, owned := range sets {
			trace := mode == 1
			code, stdout, stderr := tinyRun(t, workload, trace, false)
			if code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", workload, trace, code, stderr)
			}
			r := lastLine(t, stdout)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(declared[mode]) {
				t.Errorf("%s trace=%v: JSON has %d metrics, BENCHMARK.json declares %d", workload, trace, len(r.Metrics), len(declared[mode]))
			}
			for _, d := range declared[mode] {
				if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: JSON lacks %s in %s", workload, trace, d.name, d.unit)
				}
			}
			for _, name := range owned {
				unit := ""
				for _, d := range declared[mode] {
					if d.name == name {
						unit = d.unit
					}
				}
				if unit == "" {
					t.Errorf("%s: metric %s is not declared", workload, name)
					continue
				}
				line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(name) + ` +\S+ +` + regexp.QuoteMeta(unit) + ` +n=\d+( \(unsupported: too few samples\))?$`)
				if !line.MatchString(stderr) {
					t.Errorf("%s trace=%v: report lacks a measured %s with unit %s and a sample count\n%s", workload, trace, name, unit, stderr)
				}
			}
			if !strings.Contains(stderr, "failed_frac") {
				t.Errorf("%s: report lacks failed_frac", workload)
			}
		}
	}
}

func TestInjectedFaultFails(t *testing.T) {
	for workload := range metricNames {
		code, stdout, stderr := tinyRun(t, workload, false, true)
		if code == 0 {
			t.Errorf("%s: a corrupted output still exited 0\n%s", workload, stderr)
		}
		r := lastLine(t, stdout)
		if r.Correct || r.Failed == 0 {
			t.Errorf("%s: corrupted output not counted: correct=%v failed=%d", workload, r.Correct, r.Failed)
		}
		if m := regexp.MustCompile(`failed_frac +(\S+)`).FindStringSubmatch(stderr); m == nil || m[1] == "0" {
			t.Errorf("%s: failed_frac not above 0\n%s", workload, stderr)
		}
	}
}
