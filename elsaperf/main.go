// Command elsaperf is the repository benchmark. It runs one workload for
// a fixed time, checks every output against an exact oracle, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run), ending with one JSON line:
//
//	bash elsaperf/run.sh --workload attend-oneshot --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	attend-oneshot  open-loop POST /v1/attend through serve/client against a
//	                server child process (serve.New, elsaserve defaults)
//	engine-offline  in-process elsa.Engine.AttendBatch, no HTTP
//	decode-step     closed-loop decode sessions: one packed Step wave read and
//	                one Append write per token, with session churn
//
// The benchmark times calls into each module's public functions from
// outside; it changes no program code. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve-child":
			os.Exit(serveChild(os.Args[2:]))
		case "steady":
			os.Exit(steady(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// runCfg is one benchmark invocation.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metricDef is one reported metric. The end-to-end and per-layer lists
// are the ones BENCHMARK.json declares.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"scaled_cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
	{"output_err", "1-cos"},
}

// wallClock are the unscaled figures every untraced run also reports (in
// the diag line). They are not end-to-end metrics of BENCHMARK.json: on a
// shared host wall-clock figures swing with the CPU time the hypervisor
// steals from the guest, and raw CPU times with the host's speed, by far
// more than any bound allows. The steadiness report prints their spread.
var wallClock = []metricDef{
	{"cpu_ms_per_op", "ms"},
	{"setup_cpu_s", "s"},
	{"setup_wall_s", "s"},
	{"rate_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

var perLayer = []metricDef{
	{"client.cpu_ms_per_op", "ms"},
	{"engine_host.cpu_ms_per_op", "ms"},
	{"layers.outer_self_ms", "ms"},
	{"layers.engine_self_ms", "ms"},
	{"layers.engine_share", "fraction"},
	{"elsa.batch_self_ms", "ms"},
	{"elsa.calibrate_s", "s"},
	{"attention.preprocess_ns_per_key", "ns"},
	{"attention.hash_ns_per_query", "ns"},
	{"attention.select_ns_per_query", "ns"},
	{"attention.score_ns_per_query", "ns"},
	{"attention.exact_ns_per_query.scores", "ns"},
	{"attention.exact_ns_per_query.linear-scan", "ns"},
	{"attention.stream_append_ns", "ns"},
	{"attention.stream_query_ns", "ns"},
	{"attention.candidate_frac", "fraction"},
	{"attention.alloc_bytes_per_op", "B"},
	{"elsasim.hash_share", "fraction"},
	{"elsasim.select_share", "fraction"},
	{"elsasim.attend_share", "fraction"},
	{"bench.gen_late_ms", "ms"},
	{"bench.trace_overhead", "fraction"},
	{"bench.probe_ms_per_unit", "ms"},
}

// runOut collects one run's results. Workloads fill e2e (untraced) or
// layer (traced), plus human-readable report lines with the
// workload-specific names (attend_p50_ms, decode_tok_s, ...).
type runOut struct {
	mu        sync.Mutex
	e2e       map[string]float64
	layer     map[string]float64
	diag      map[string]float64
	lines     []string
	attempted int
	failed    int
	failures  []string
	probe     speedProbe
}

func newRunOut() *runOut {
	return &runOut{e2e: map[string]float64{}, layer: map[string]float64{}, diag: map[string]float64{}}
}

// fail counts one failed op, keeping the first few reasons.
func (o *runOut) fail(why string) {
	o.mu.Lock()
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, why)
	}
	o.mu.Unlock()
}

func (o *runOut) attempt(n int) {
	o.mu.Lock()
	o.attempted += n
	o.mu.Unlock()
}

// linef adds a human-readable report line.
func (o *runOut) linef(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// named records a workload-specific metric in the report.
func (o *runOut) named(name string, v float64, unit, note string) {
	o.linef("metric %-34s %14.6g %-10s %s", name, v, unit, note)
}

// setupReps is how many times each run sets up from scratch; setup_s is
// the median of their scaled CPU times.
const setupReps = 11

// setupTimes collects a run's set-ups. setup_s is CPU time, of this
// process and of the server child it started, so that work moved into
// set-up shows while the CPU time the hypervisor steals from the guest
// does not: in wall-clock time a set-up of a few tenths of a second
// doubled when a burst of steal fell into it. Each set-up's CPU time is
// scaled by the speed probe run right after it (see probe.go). The raw
// CPU and wall-clock medians are reported beside it, in the diag line.
type setupTimes struct{ scaled, cpu, wall []float64 }

// add records one set-up; probeMS is the probe reading taken after it.
func (s *setupTimes) add(cpu, wall time.Duration, probeMS float64) {
	s.scaled = append(s.scaled, cpu.Seconds()*probeRefMS/probeMS)
	s.cpu = append(s.cpu, cpu.Seconds())
	s.wall = append(s.wall, wall.Seconds())
}

// report sets setup_s, setup_cpu_s and setup_wall_s; what says what one
// set-up does.
func (s *setupTimes) report(out *runOut, what string) {
	out.e2e["setup_s"] = median(s.scaled)
	out.diag["setup_cpu_s"] = median(s.cpu)
	out.diag["setup_wall_s"] = median(s.wall)
	out.named("setup_s", median(s.scaled), "s", fmt.Sprintf("scaled CPU time, median of %d %.3f: %s", len(s.scaled), s.scaled, what))
	out.named("setup_cpu_s", median(s.cpu), "s", "CPU time of the same set-ups, unscaled")
	out.named("setup_wall_s", median(s.wall), "s", "wall-clock time of the same set-ups")
}

// cpuPerOp reports scaled_cpu_ms_per_op from raw CPU ms per op; what says
// whose CPU time it is.
func (o *runOut) cpuPerOp(raw float64, what string) {
	o.e2e["scaled_cpu_ms_per_op"] = o.probe.scale(raw)
	o.diag["cpu_ms_per_op"] = raw
	o.named("scaled_cpu_ms_per_op", o.e2e["scaled_cpu_ms_per_op"], "ms", what+", scaled by the speed probe")
	o.named("cpu_ms_per_op", raw, "ms", what+", unscaled")
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

var workloads = map[string]func(runCfg, *runOut) error{
	"attend-oneshot": runAttend,
	"engine-offline": runOffline,
	"decode-step":    runDecode,
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("elsaperf", flag.ContinueOnError)
	name := fs.String("workload", "", "attend-oneshot, engine-offline or decode-step")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "elsaperf: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "elsaperf: --seconds must be positive")
		return 2
	}
	cfg := runCfg{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	out := newRunOut()
	t0, s0 := hostTicks()
	if err := run(cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "elsaperf:", err)
		return 1
	}
	// Time the hypervisor gave other guests while this run wanted a CPU:
	// the host noise no benchmark design removes.
	t1, s1 := hostTicks()
	out.diag["host_steal_frac"] = ratio(s1-s0, t1-t0)
	out.probe.report(out)
	return printResult(cfg, out)
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// printResult prints the report lines, the diagnostics line and the
// result JSON (last line).
func printResult(cfg runCfg, out *runOut) int {
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, l := range out.lines {
		fmt.Println(l)
	}
	errFrac := ratio(float64(out.failed), float64(out.attempted))
	fmt.Printf("metric %-34s %14.6g %-10s ops failed / attempted (%d / %d)\n", "error_frac", errFrac, "fraction", out.failed, out.attempted)
	for _, f := range out.failures {
		fmt.Println("failure:", f)
	}
	verdict := "PASS"
	if out.failed > 0 {
		verdict = "FAIL"
	}
	fmt.Printf("verdict %s: every output checked against the exact oracle\n", verdict)
	if d, err := json.Marshal(out.diag); err == nil {
		fmt.Printf("diag %s\n", d)
	}

	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layer
	}
	res := resultJSON{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "elsaperf: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	if out.attempted < 1 {
		fmt.Fprintln(os.Stderr, "elsaperf: no ops attempted")
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elsaperf:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs from.
func traceDir() string { return filepath.Join(".bench_build", "traces") }
