// Command elsabench regenerates the paper's evaluation tables and figures
// (Fig 2, Fig 10, Fig 11, Fig 13, Table I, the §V-E A³/TPU comparisons,
// the §V-C end-to-end analysis, the §IV-B host-integration study, workload
// diagnostics, whole-model fidelity, and the ablation suite) from the Go
// reproduction, printing each as a text table.
//
// Usage:
//
//	elsabench [-experiment all|fig2|fig10|fig11|fig13|table1|a3|tpu|e2e|host|workloads|modelfid|ablations|bench|migrate|autoscale|exact]
//	          [-quick] [-seed N] [-json out.json] [-svg dir]
//	          [-baseline BENCH_old.json [-compare BENCH_new.json] [-maxregress 0.15]]
//
// -json out.json writes the selected experiment's raw rows — including the
// "bench" experiment's machine-readable ns/op, candidate-fraction and
// speedup measurements — to a file ("-" writes to stdout), so successive
// changes can be tracked as a BENCH_*.json perf trajectory. The "migrate"
// experiment measures portable session state (resident bytes/session hot
// vs cold, whole-session moves/s over the HTTP export/import path,
// rehydrate latency); the "autoscale" experiment measures the closed
// autoscale loop (rebalance convergence time and migrations toward a
// fresh joiner, plus shadow-mirror replay ns/token); and the
// "exact" experiment measures the two exact attention backends (the
// scores reference vs the linear-scan oracle) on the ViT patch-grid and
// long-document workload families: batch ns/op, allocated bytes/op (the
// memory ceiling — linear scan must not materialize n×n), streaming
// decode tokens/s, and the cross-backend ULP agreement, plus the
// cheap-softmax-exponential ablation. Serving throughput and decode
// batching are measured out of process by elsaperf (elsaperf/run.sh).
//
// -baseline gates a trajectory against a committed snapshot on every
// family the two snapshots share: engine ns/op, migration moves/s and
// resident bytes, rebalance convergence, mirror ns/token and exact
// tokens/s. One keyed comparator, driven by the table in gate.go,
// matches rows by their key fields; the exact family's absolute checks
// (differential bound, memory ceiling) run on the new snapshot alone.
// With -compare the new side is a second committed snapshot; without
// it, a fresh "bench" measurement. Exit status 2 reports a regression
// beyond -maxregress.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"elsa/internal/energy"
	"elsa/internal/experiments"
	"elsa/internal/host"
	"elsa/internal/plot"
)

func main() {
	which := flag.String("experiment", "all", "which experiment to run: all|"+strings.Join(experimentNames(), "|"))
	quick := flag.Bool("quick", false, "reduced sample counts for a fast smoke run")
	seed := flag.Int64("seed", 1, "random seed")
	jsonOut := flag.String("json", "", `write raw experiment rows as JSON to this file instead of tables ("-" = stdout)`)
	svgDir := flag.String("svg", "", "also render the figures as SVG files into this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	baseline := flag.String("baseline", "", "gate against this committed BENCH_*.json on every family both snapshots share")
	maxRegress := flag.Float64("maxregress", 0.15, "with -baseline: allowed fractional regression before failing")
	compare := flag.String("compare", "", "with -baseline: compare this committed BENCH_*.json instead of measuring fresh")
	flag.Parse()

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
	}
	opt.Seed = *seed

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "elsabench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "elsabench:", err)
			}
		}()
	}

	if _, ok := lookupExperiment(*which); !ok && *which != "all" {
		fatal(fmt.Errorf("unknown experiment %q (want one of all, %v)", *which, experimentNames()))
	}
	if *compare != "" && *baseline == "" {
		fatal(fmt.Errorf("-compare requires -baseline to compare against"))
	}
	if *baseline != "" {
		if *compare == "" && *which != "all" && *which != "bench" {
			fatal(fmt.Errorf("a fresh -baseline run measures bench only, not -experiment %s", *which))
		}
		if err := runGate(opt, *baseline, *compare, *jsonOut, *maxRegress); err != nil {
			fatal(err)
		}
		return
	}

	if *svgDir != "" {
		if err := emitSVG(*svgDir, opt); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "figures written to %s\n", *svgDir)
		return
	}
	selected := experimentTable
	if e, ok := lookupExperiment(*which); ok {
		selected = []experiment{e}
	}
	if *jsonOut != "" {
		if err := emitJSON(selected, opt, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	for _, e := range selected {
		rows, err := e.rows(opt)
		if err == nil {
			err = e.print(rows, opt)
		}
		if err != nil {
			fatal(err)
		}
	}
}

// experiment is one row of the experiment table: rows measures the raw
// rows -json writes under name, and print renders those same rows as
// text, computing any text-only section from opt.
type experiment struct {
	name  string
	rows  func(experiments.Options) (any, error)
	print func(any, experiments.Options) error
}

// exp builds an experiment from a typed rows function and its printer.
func exp[T any](name string, rows func(experiments.Options) (T, error), print func(T, experiments.Options) error) experiment {
	return experiment{
		name:  name,
		rows:  func(opt experiments.Options) (any, error) { return rows(opt) },
		print: func(v any, opt experiments.Options) error { return print(v.(T), opt) },
	}
}

// experimentTable lists every experiment in the order "all" runs them.
var experimentTable = []experiment{
	exp("fig2", experiments.Fig2, printFig2),
	exp("fig10", experiments.Fig10, printFig10),
	exp("fig11", withSummary(experiments.Fig11), printFig11),
	exp("fig13", withSummary(experiments.Fig13), printFig13),
	exp("table1", table1Rows, printTable1),
	exp("a3", experiments.A3Compare, printA3),
	exp("tpu", experiments.TPUCompare, printTPU),
	exp("e2e", endToEndRows, printEndToEnd),
	exp("host", hostRows, printHost),
	exp("workloads", experiments.WorkloadDiagnostics, printWorkloads),
	exp("modelfid", experiments.ModelFidelity, printModelFidelity),
	exp("ablations", ablationRows, printAblations),
	exp("bench", benchRows, printBench),
	exp("migrate", migrateRows, printMigrate),
	exp("autoscale", autoscaleRows, printAutoscale),
	exp("exact", exactRows, printExact),
}

// experimentNames lists the table's names in order.
func experimentNames() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return names
}

// lookupExperiment finds one experiment of the table by name.
func lookupExperiment(name string) (experiment, bool) {
	for _, e := range experimentTable {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// summarized is an experiment's rows beside their summary.
type summarized[R, S any] struct {
	Rows    R `json:"rows"`
	Summary S `json:"summary"`
}

// withSummary adapts an experiment that returns rows and a summary.
func withSummary[R, S any](f func(experiments.Options) (R, S, error)) func(experiments.Options) (summarized[R, S], error) {
	return func(opt experiments.Options) (summarized[R, S], error) {
		rows, summary, err := f(opt)
		return summarized[R, S]{rows, summary}, err
	}
}

// table1 is Table I with its totals.
type table1 struct {
	Rows   []energy.ModulePower     `json:"rows"`
	Totals energy.AcceleratorTotals `json:"totals"`
}

func table1Rows(experiments.Options) (table1, error) {
	return table1{energy.TableI, energy.Totals()}, nil
}

func endToEndRows(opt experiments.Options) (e2e summarized[[]experiments.EndToEndRow, experiments.EndToEndSummary], err error) {
	if e2e.Rows, err = experiments.EndToEnd(opt); err == nil {
		e2e.Summary = experiments.SummarizeEndToEnd(e2e.Rows)
	}
	return e2e, err
}

// hostRows simulates one conservative op at the paper's size and
// analyzes it across the host-integration links (§IV-B).
func hostRows(opt experiments.Options) ([]host.Integration, error) {
	sec, err := experiments.RepresentativeOpSeconds(opt)
	if err != nil {
		return nil, err
	}
	var links []host.Integration
	for _, l := range []host.Link{host.ByReference(), host.NVLink2(), host.PCIe3x16()} {
		in, err := host.Analyze(l, 512, 64, sec)
		if err != nil {
			return nil, err
		}
		links = append(links, in)
	}
	return links, nil
}

// ablations holds the ablation suite's rows, its fields in the key order
// -json has always written them.
type ablations struct {
	Bias         []experiments.BiasAblation      `json:"bias"`
	HashKind     []experiments.HashKindAblation  `json:"hashKind"`
	K            []experiments.KAblation         `json:"k"`
	Kron         []experiments.KronAblation      `json:"kron"`
	Pipeline     []experiments.PipelinePoint     `json:"pipeline"`
	Quantization []experiments.QuantAblation     `json:"quantization"`
	Selection    []experiments.SelectionAblation `json:"selection"`
}

func ablationRows(opt experiments.Options) (ablations, error) {
	var a ablations
	var err error
	if a.HashKind, err = experiments.AblateHashKind(opt); err != nil {
		return a, err
	}
	if a.Bias, err = experiments.AblateBias(opt); err != nil {
		return a, err
	}
	if a.Kron, err = experiments.AblateKron(opt); err != nil {
		return a, err
	}
	if a.K, err = experiments.AblateK(opt); err != nil {
		return a, err
	}
	if a.Quantization, err = experiments.AblateQuantization(opt); err != nil {
		return a, err
	}
	if a.Selection, err = experiments.AblateSelection(opt); err != nil {
		return a, err
	}
	a.Pipeline, err = experiments.AblatePipeline(opt)
	return a, err
}

// emitJSON writes the selected experiments' rows, keyed by name.
func emitJSON(selected []experiment, opt experiments.Options, path string) error {
	out := make(map[string]any, len(selected))
	for _, e := range selected {
		rows, err := e.rows(opt)
		if err != nil {
			return err
		}
		out[e.name] = rows
	}
	return writeJSONPayload(out, path)
}

// writeJSONPayload encodes payload as indented JSON to path ("-" = stdout).
func writeJSONPayload(payload any, path string) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "elsabench:", cerr)
			} else {
				fmt.Fprintf(os.Stderr, "results written to %s\n", path)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "elsabench:", err)
	os.Exit(1)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func printFig2(rows []experiments.Fig2Row, _ experiments.Options) error {
	header("Fig 2: self-attention share of model runtime (GPU model)")
	fmt.Printf("%-15s %6s %7s %12s %12s\n", "model", "seq", "ffn", "time-share", "flop-share")
	for _, r := range rows {
		fmt.Printf("%-15s %5dx %5d/4⁰ %11.1f%% %11.1f%%\n",
			r.Model, r.SeqMult, 4/r.FFNDiv, 100*r.AttnShare, 100*r.AttnFLOPShare)
	}
	s := experiments.SummarizeFig2(rows)
	fmt.Printf("mean share: default %.1f%% (paper ~38%%) | 4x seq %.1f%% (paper ~64%%) | 4x seq + FFN/4 %.1f%% (paper ~73%%)\n",
		100*s.MeanShareDefault, 100*s.MeanShare4xSeq, 100*s.MeanShare4xSeqFFN4)
	return nil
}

func printFig10(rows []experiments.Fig10Row, _ experiments.Options) error {
	header("Fig 10: candidate fraction (bars) and accuracy-proxy loss (lines) vs p")
	fmt.Printf("%-28s %5s %10s %10s %9s %9s %14s\n", "combo", "p", "cand-frac", "mass", "loss-pct", "cosine", "metric-after")
	for _, r := range rows {
		fmt.Printf("%-28s %5.1f %9.1f%% %10.4f %8.2f%% %9.4f %7.3f %s\n",
			r.Combo, r.P, 100*r.CandidateFraction, r.RetainedMass, r.AccuracyLossPct, r.MeanCosine,
			r.MetricAfter, r.Metric)
	}
	s := experiments.SummarizeFig10(rows)
	fmt.Printf("p=1: mean fraction %.1f%% at %.2f%% loss (paper: <40%% at sub-1%%)\n",
		100*s.MeanFractionP1, s.MeanLossP1)
	fmt.Printf("p=2: mean fraction %.1f%% at %.2f%% loss (paper: ~26%% at sub-2%%)\n",
		100*s.MeanFractionP2, s.MeanLossP2)
	return nil
}

func printFig11(f summarized[[]experiments.Fig11Row, experiments.Fig11Summary], _ experiments.Options) error {
	rows, summary := f.Rows, f.Summary
	header("Fig 11a: normalized self-attention throughput (GPU = 1)")
	fmt.Printf("%-28s %8s %8s %8s %8s %8s\n", "combo", "ideal", "base", "conserv", "moderate", "aggress")
	for _, r := range rows {
		fmt.Printf("%-28s %8.1f %8.1f %8.1f %8.1f %8.1f\n",
			r.Combo, r.IdealThroughputNorm,
			r.ThroughputNorm[experiments.Base],
			r.ThroughputNorm[experiments.Conservative],
			r.ThroughputNorm[experiments.Moderate],
			r.ThroughputNorm[experiments.Aggressive])
	}
	fmt.Printf("geomean: base %.1fx (paper 7.99-43.93x band) | cons %.1fx (paper 57x) | mod %.1fx (paper 73x) | aggr %.1fx (paper 81x)\n",
		summary.ThroughputGeomean[experiments.Base],
		summary.ThroughputGeomean[experiments.Conservative],
		summary.ThroughputGeomean[experiments.Moderate],
		summary.ThroughputGeomean[experiments.Aggressive])
	fmt.Printf("base range: %.1fx - %.1fx\n",
		summary.ThroughputMin[experiments.Base], summary.ThroughputMax[experiments.Base])

	header("Fig 11b: latency vs ideal accelerator (preprocessing share hatched)")
	fmt.Printf("%-28s %10s %10s %10s %10s %9s\n", "combo", "base", "conserv", "moderate", "aggress", "preproc")
	for _, r := range rows {
		fmt.Printf("%-28s %10.2f %10.2f %10.2f %10.2f %8.1f%%\n",
			r.Combo,
			r.LatencyVsIdeal[experiments.Base],
			r.LatencyVsIdeal[experiments.Conservative],
			r.LatencyVsIdeal[experiments.Moderate],
			r.LatencyVsIdeal[experiments.Aggressive],
			100*r.PreprocessFrac[experiments.Conservative])
	}
	fmt.Printf("latency geomean: base %.2fx (paper 1.03x) | cons %.2fx (paper 0.38x) | mod %.2fx (paper 0.29x) | aggr %.2fx (paper 0.26x)\n",
		summary.LatencyGeomean[experiments.Base],
		summary.LatencyGeomean[experiments.Conservative],
		summary.LatencyGeomean[experiments.Moderate],
		summary.LatencyGeomean[experiments.Aggressive])
	fmt.Printf("speedup over base: cons %.2fx | mod %.2fx | aggr %.2fx\n",
		summary.SpeedupOverBase[experiments.Conservative],
		summary.SpeedupOverBase[experiments.Moderate],
		summary.SpeedupOverBase[experiments.Aggressive])
	return nil
}

func printFig13(f summarized[[]experiments.Fig13Row, experiments.Fig13Summary], _ experiments.Options) error {
	rows, summary := f.Rows, f.Summary
	header("Fig 13a: normalized energy efficiency (performance/W vs GPU)")
	fmt.Printf("%-28s %9s %9s %9s %9s\n", "combo", "base", "conserv", "moderate", "aggress")
	for _, r := range rows {
		fmt.Printf("%-28s %9.0f %9.0f %9.0f %9.0f\n", r.Combo,
			r.EfficiencyGain[experiments.Base],
			r.EfficiencyGain[experiments.Conservative],
			r.EfficiencyGain[experiments.Moderate],
			r.EfficiencyGain[experiments.Aggressive])
	}
	fmt.Printf("geomean: base %.0fx (paper 442x) | cons %.0fx (paper 1265x) | mod %.0fx (paper 1726x) | aggr %.0fx (paper 2093x)\n",
		summary.EfficiencyGeomean[experiments.Base],
		summary.EfficiencyGeomean[experiments.Conservative],
		summary.EfficiencyGeomean[experiments.Moderate],
		summary.EfficiencyGeomean[experiments.Aggressive])

	header("Fig 13b: energy breakdown by module (share of total)")
	for _, m := range experiments.Modes() {
		fmt.Printf("-- %s --\n", m)
		share := summary.BreakdownShare[m]
		names := make([]string, 0, len(share))
		for name := range share {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return share[names[i]] > share[names[j]] })
		for _, name := range names {
			fmt.Printf("  %-28s %6.1f%%\n", name, 100*share[name])
		}
	}
	return nil
}

func printTable1(t1 table1, _ experiments.Options) error {
	header("Table I: area and peak power characteristics")
	fmt.Printf("%-30s %10s %12s %11s\n", "module", "area(mm2)", "dynamic(mW)", "static(mW)")
	for _, row := range t1.Rows {
		fmt.Printf("%-30s %10.3f %12.2f %11.2f\n", row.Name, row.AreaMM2, row.DynamicMW, row.StaticMW)
	}
	t := t1.Totals
	fmt.Printf("%-30s %10.3f %12.2f %11.2f\n", "ELSA Accelerator (1x)",
		t.InternalAreaMM2, t.InternalDynamicMW, t.InternalStaticMW)
	fmt.Printf("%-30s %10.3f %12.2f %11.2f\n", "External Memory Modules (1x)",
		t.ExternalAreaMM2, t.ExternalDynamicMW, t.ExternalStaticMW)
	fmt.Printf("peak power per accelerator: %.2f W (paper ~1.49 W)\n", energy.PeakPowerWatts())
	return nil
}

func printA3(res experiments.A3Result, _ experiments.Options) error {
	header("§V-E: comparison with the A3 accelerator (BERT/SQuADv1.1)")
	fmt.Printf("ELSA speedup over ELSA-base: cons %.2fx (paper 2.76x) | mod %.2fx (paper 3.72x)\n",
		res.ElsaSpeedupOverBase[experiments.Conservative],
		res.ElsaSpeedupOverBase[experiments.Moderate])
	fmt.Printf("A3 approximation speedup over its base: published %.2fx, modeled %.2fx\n",
		res.A3PublishedSpeedup, res.A3ModeledSpeedup)
	fmt.Printf("raw speedup over A3-approx: cons %.2fx (paper 5.96x) | mod %.2fx (paper 8.04x)\n",
		res.RawSpeedupRatio[experiments.Conservative],
		res.RawSpeedupRatio[experiments.Moderate])
	return nil
}

func printTPU(rows []experiments.TPUResult, _ experiments.Options) error {
	header("§V-E: comparison with Google TPUv2 (ALBERT, iso-peak-FLOPS)")
	fmt.Printf("%-12s %12s %14s %14s\n", "dataset", "tpu-vs-gpu", "elsa-base/tpu", "elsa-mod/tpu")
	for _, r := range rows {
		fmt.Printf("%-12s %11.1fx %13.1fx %13.1fx\n", r.Dataset, r.TPURawVsGPU,
			r.ElsaVsTPUIsoPeak[experiments.Base],
			r.ElsaVsTPUIsoPeak[experiments.Moderate])
	}
	fmt.Println("paper: base 8.3/6.4/2.4x, moderate 27.8/20.9/8.0x for SQuADv1.1/2.0/RACE")
	return nil
}

func printAblations(a ablations, opt experiments.Options) error {
	header("Ablation: orthogonal vs Gaussian SRP (§III-B)")
	fmt.Printf("%-12s %14s %10s\n", "projection", "mean-abs-err", "theta-bias")
	for _, r := range a.HashKind {
		fmt.Printf("%-12s %14.4f %10.4f\n", r.Kind, r.MeanAbsErr, r.Bias)
	}

	header("Ablation: theta_bias correction on/off (§III-B)")
	fmt.Printf("%-10s %14s %12s\n", "bias", "retained-mass", "cand-frac")
	for _, r := range a.Bias {
		fmt.Printf("%-10v %14.4f %11.1f%%\n", r.BiasEnabled, r.RetainedMass, 100*r.CandidateFraction)
	}

	header("Ablation: hash-computation structure (§III-C)")
	fmt.Printf("%-14s %8s %12s %11s\n", "structure", "mults", "cycles/vec", "angle-err")
	for _, r := range a.Kron {
		fmt.Printf("%-14s %8d %12d %11.4f\n", r.Structure, r.Multiplications, r.HashCyclesPerVec, r.AngleErr)
	}

	header("Ablation: hash length k (§IV-E)")
	fmt.Printf("%6s %11s %14s %10s %14s\n", "k", "cand-frac", "retained-mass", "hash-muls", "hash-SRAM(B)")
	for _, r := range a.K {
		fmt.Printf("%6d %10.1f%% %14.4f %10d %14d\n", r.K, 100*r.CandidateFraction, r.RetainedMass, r.HashMuls, r.KeyHashBytes)
	}

	header("Ablation: fixed-point quantization (§IV-E, <0.2% claim)")
	fmt.Printf("%-10s %12s %14s\n", "quantized", "mean-cosine", "retained-mass")
	for _, r := range a.Quantization {
		fmt.Printf("%-10v %12.4f %14.4f\n", r.Quantized, r.MeanCosine, r.RetainedMass)
	}

	header("Ablation: threshold vs oracle top-c sorting (§III-E)")
	fmt.Printf("%-20s %11s %14s\n", "method", "cand-frac", "retained-mass")
	for _, r := range a.Selection {
		fmt.Printf("%-20s %10.1f%% %14.4f\n", r.Method, 100*r.CandidateFraction, r.RetainedMass)
	}

	header("Ablation: downstream probe accuracy (task-level proxy)")
	pr, err := experiments.AblateProbe(opt)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %5s %10s %11s\n", "mode", "p", "accuracy", "cand-frac")
	for _, r := range pr {
		fmt.Printf("%-14s %5.1f %9.1f%% %10.1f%%\n", r.Mode, r.P, 100*r.Accuracy, 100*r.CandidateFraction)
	}

	header("Ablation: pipeline design space Pa x Pc (§IV-D)")
	fmt.Printf("%4s %4s %5s %4s %7s %12s %12s %9s %11s %10s %12s\n",
		"Pa", "Pc", "mh", "mo", "mults", "base-cyc", "cons-cyc", "speedup", "scan-bound", "area-mm2", "ops/s/mm2")
	for _, p := range a.Pipeline {
		fmt.Printf("%4d %4d %5d %4d %7d %12d %12d %8.2fx %10.1f%% %10.2f %12.0f\n",
			p.Pa, p.Pc, p.Mh, p.Mo, p.Multipliers,
			p.BaseCycles, p.ConsCycles, p.ApproxSpeedup, 100*p.ScanBoundFrac,
			p.AreaMM2, p.ThroughputPerArea)
	}
	return nil
}

func printEndToEnd(e2e summarized[[]experiments.EndToEndRow, experiments.EndToEndSummary], opt experiments.Options) error {
	rows, s := e2e.Rows, e2e.Summary
	header("§V-C: end-to-end model speedup with ELSA-conservative attention offload")
	fmt.Printf("%-15s %5s %11s %13s %10s %12s\n", "model", "seq", "attn-share", "attn-speedup", "e2e", "e2e+fastFC")
	for _, r := range rows {
		fmt.Printf("%-15s %4dx %10.1f%% %12.1fx %9.2fx %11.2fx\n",
			r.Model, r.SeqMult, 100*r.AttnShareGPU, r.AttnSpeedup, r.Speedup, r.SpeedupFastRest)
	}
	fmt.Printf("default length: %.2f-%.2fx, geomean %.2fx (paper: 1.4-2.5x)\n", s.MinDefault, s.MaxDefault, s.GeomeanDefault)
	fmt.Printf("4x length:      %.2f-%.2fx, geomean %.2fx (paper: 2.4-5.0x)\n", s.Min4x, s.Max4x, s.Geomean4x)

	header("fleet schedule: one inference's attention ops on 12 accelerators")
	sched, err := experiments.ModelSchedule(opt)
	if err != nil {
		return err
	}
	fmt.Printf("%-15s %8s %7s %13s %13s %12s\n", "model", "headops", "waves", "makespan(s)", "perfect(s)", "utilization")
	for _, r := range sched {
		fmt.Printf("%-15s %8d %7d %13.3g %13.3g %11.1f%%\n",
			r.Model, r.HeadOps, r.WavesPerLayer, r.MakespanSeconds, r.PerfectSeconds, 100*r.Utilization)
	}
	return nil
}

func printHost(links []host.Integration, _ experiments.Options) error {
	header("§IV-B: host integration overhead (one n=512 op)")
	fmt.Printf("accelerator compute time: %.3g s\n", links[0].ComputeSec)
	fmt.Printf("%-34s %12s %10s %16s\n", "link", "transfer(s)", "overhead", "eff-speedup@57x")
	for _, in := range links {
		fmt.Printf("%-34s %12.3g %9.1f%% %15.1fx\n",
			in.Link.Name, in.TransferSec, 100*in.Overhead(), in.EffectiveSpeedup(57))
	}
	fmt.Println("the paper integrates ELSA by reference into the host's scratchpad for this reason")
	return nil
}

// emitSVG renders the figure-style experiments as SVG charts.
func emitSVG(dir string, opt experiments.Options) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, svg string) error {
		return os.WriteFile(dir+"/"+name, []byte(svg), 0o644)
	}

	// Fig 10: candidate fraction and proxy loss vs p (per-combo lines).
	f10, err := experiments.Fig10(opt)
	if err != nil {
		return err
	}
	byCombo := map[string][]experiments.Fig10Row{}
	var order10 []string
	for _, r := range f10 {
		if _, ok := byCombo[r.Combo]; !ok {
			order10 = append(order10, r.Combo)
		}
		byCombo[r.Combo] = append(byCombo[r.Combo], r)
	}
	var fracSeries, lossSeries []plot.Series
	for _, combo := range order10 {
		rows := byCombo[combo]
		fs := plot.Series{Name: combo}
		ls := plot.Series{Name: combo}
		for _, r := range rows {
			fs.Values = append(fs.Values, 100*r.CandidateFraction)
			ls.Values = append(ls.Values, r.AccuracyLossPct)
		}
		fracSeries = append(fracSeries, fs)
		lossSeries = append(lossSeries, ls)
	}
	svg, err := (plot.LineChart{
		Title: "Fig 10: candidate fraction vs p", XLabel: "p",
		YLabel: "% of keys inspected", X: experiments.Fig10P, Series: fracSeries,
		Height: 520,
	}).SVG()
	if err != nil {
		return err
	}
	if err := write("fig10_fraction.svg", svg); err != nil {
		return err
	}
	svg, err = (plot.LineChart{
		Title: "Fig 10: accuracy-proxy loss vs p", XLabel: "p",
		YLabel: "loss (pct points)", X: experiments.Fig10P, Series: lossSeries,
		Height: 520,
	}).SVG()
	if err != nil {
		return err
	}
	if err := write("fig10_loss.svg", svg); err != nil {
		return err
	}

	// Fig 11a: throughput bars (log scale).
	rows11, _, err := experiments.Fig11(opt)
	if err != nil {
		return err
	}
	var labels []string
	series11 := []plot.Series{
		{Name: "ideal"}, {Name: "base"}, {Name: "conservative"},
		{Name: "moderate"}, {Name: "aggressive"},
	}
	var lat11 []plot.Series
	lat11 = []plot.Series{{Name: "base"}, {Name: "conservative"}, {Name: "moderate"}, {Name: "aggressive"}}
	for _, r := range rows11 {
		labels = append(labels, r.Combo)
		series11[0].Values = append(series11[0].Values, r.IdealThroughputNorm)
		for mi, m := range experiments.Modes() {
			series11[mi+1].Values = append(series11[mi+1].Values, r.ThroughputNorm[m])
			lat11[mi].Values = append(lat11[mi].Values, r.LatencyVsIdeal[m])
		}
	}
	svg, err = (plot.BarChart{
		Title:  "Fig 11a: normalized self-attention throughput (GPU = 1)",
		YLabel: "x over GPU (log)", XLabels: labels, Series: series11, LogY: true,
		Width: 1100, Height: 520,
	}).SVG()
	if err != nil {
		return err
	}
	if err := write("fig11a_throughput.svg", svg); err != nil {
		return err
	}
	svg, err = (plot.BarChart{
		Title:  "Fig 11b: latency vs ideal accelerator",
		YLabel: "x of ideal latency", XLabels: labels, Series: lat11,
		Width: 1100, Height: 520,
	}).SVG()
	if err != nil {
		return err
	}
	if err := write("fig11b_latency.svg", svg); err != nil {
		return err
	}

	// Fig 13a: energy-efficiency bars (log scale).
	rows13, _, err := experiments.Fig13(opt)
	if err != nil {
		return err
	}
	labels = labels[:0]
	series13 := []plot.Series{{Name: "base"}, {Name: "conservative"}, {Name: "moderate"}, {Name: "aggressive"}}
	for _, r := range rows13 {
		labels = append(labels, r.Combo)
		for mi, m := range experiments.Modes() {
			series13[mi].Values = append(series13[mi].Values, r.EfficiencyGain[m])
		}
	}
	svg, err = (plot.BarChart{
		Title:  "Fig 13a: energy efficiency vs GPU",
		YLabel: "x over GPU (log)", XLabels: labels, Series: series13, LogY: true,
		Width: 1100, Height: 520,
	}).SVG()
	if err != nil {
		return err
	}
	if err := write("fig13a_efficiency.svg", svg); err != nil {
		return err
	}

	// End-to-end speedups.
	rowsE2E, err := experiments.EndToEnd(opt)
	if err != nil {
		return err
	}
	labels = labels[:0]
	seriesE2E := []plot.Series{{Name: "default length"}, {Name: "4x length"}}
	byModel := map[string]map[int]float64{}
	var modelOrder []string
	for _, r := range rowsE2E {
		if _, ok := byModel[r.Model]; !ok {
			byModel[r.Model] = map[int]float64{}
			modelOrder = append(modelOrder, r.Model)
		}
		byModel[r.Model][r.SeqMult] = r.Speedup
	}
	for _, m := range modelOrder {
		labels = append(labels, m)
		seriesE2E[0].Values = append(seriesE2E[0].Values, byModel[m][1])
		seriesE2E[1].Values = append(seriesE2E[1].Values, byModel[m][4])
	}
	svg, err = (plot.BarChart{
		Title:  "End-to-end model speedup with ELSA attention offload (§V-C)",
		YLabel: "x over GPU-only", XLabels: labels, Series: seriesE2E,
		Width: 900, Height: 420,
	}).SVG()
	if err != nil {
		return err
	}
	return write("e2e_speedup.svg", svg)
}

func printWorkloads(rows []experiments.WorkloadRow, _ experiments.Options) error {
	header("workload diagnostics: synthetic attention-distribution shape")
	fmt.Printf("%-14s %9s %11s %9s %9s %9s %9s\n",
		"dataset", "mean-len", "len-range", "entropy", "eff-keys", "top10%", ">1/n")
	for _, r := range rows {
		fmt.Printf("%-14s %9.0f %5d-%-5d %9.2f %9.1f %8.1f%% %8.1f%%\n",
			r.Dataset, r.MeanLen, r.MinLen, r.MaxLen,
			r.Stats.MeanEntropy, r.Stats.MeanEffectiveSupport,
			100*r.Stats.Top10Mass, 100*r.Stats.AboveUniform)
	}
	fmt.Println("(§II-C premise: few keys hold most softmax mass; the >1/n column is the")
	fmt.Println(" population the p=1 threshold rule targets)")
	return nil
}

func printModelFidelity(rows []experiments.ModelFidelityRow, _ experiments.Options) error {
	header("whole-model fidelity: truncated BERT encoder with per-sub-layer thresholds")
	fmt.Printf("%6s %11s %12s %17s\n", "p", "cand-frac", "mean-cosine", "threshold-spread")
	for _, r := range rows {
		fmt.Printf("%6.1f %10.1f%% %12.4f %17.4f\n", r.P, 100*r.CandidateFraction, r.MeanCosine, r.ThresholdSpread)
	}
	fmt.Println("(final-layer token representations vs the exact-attention forward pass)")
	return nil
}
