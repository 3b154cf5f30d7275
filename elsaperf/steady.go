package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runRecord is one untraced run, as the steadiness report reads it.
type runRecord struct {
	Set      int                `json:"set"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Result   resultJSON         `json:"result"`
	Diag     map[string]float64 `json:"diag"`
}

// benchSpec is the part of BENCHMARK.json the report uses.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs (or loads) two sets of untraced runs and reports, per
// (metric, workload), each set's median and quartiles, the spread
// (q3 − q1)/median against the metric's bound, and whether the second
// set's median is within the bound of the first.
//
// Both sets run the same seeds for BENCHMARK.json's run_seconds.
//
//	elsaperf steady [-runs 10] [-seed 1] workload...
//	elsaperf steady -load setA.jsonl,setB.jsonl
func steady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload per set")
	seed := fs.Int64("seed", 1, "first seed of each set")
	load := fs.String("load", "", "comma-separated record files to report on instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var bs benchSpec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "elsaperf steady:", err)
		return 1
	}
	var recs []runRecord
	if *load != "" {
		for i, path := range strings.Split(*load, ",") {
			rs, err := readRecords(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "elsaperf steady:", err)
				return 1
			}
			for _, r := range rs {
				r.Set = i
				recs = append(recs, r)
			}
		}
	} else {
		if fs.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "elsaperf steady: name at least one workload")
			return 2
		}
		dir := filepath.Join(".bench_build", "steady")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "elsaperf steady:", err)
			return 1
		}
		for set := 0; set < 2; set++ {
			path := filepath.Join(dir, fmt.Sprintf("set%c.jsonl", 'A'+set))
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "elsaperf steady:", err)
				return 1
			}
			for _, w := range fs.Args() {
				for i := 0; i < *runs; i++ {
					r, err := runOnce(w, *seed+int64(i), float64(bs.RunSeconds))
					if err != nil {
						f.Close()
						fmt.Fprintln(os.Stderr, "elsaperf steady:", err)
						return 1
					}
					r.Set = set
					recs = append(recs, r)
					line, err := json.Marshal(r)
					if err == nil {
						_, err = fmt.Fprintf(f, "%s\n", line)
					}
					if err != nil {
						f.Close()
						fmt.Fprintln(os.Stderr, "elsaperf steady: writing", path+":", err)
						return 1
					}
					fmt.Fprintf(os.Stderr, "set %c %s seed %d done\n", 'A'+set, w, r.Seed)
				}
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "elsaperf steady:", err)
				return 1
			}
			fmt.Printf("set %c records: %s\n", 'A'+set, path)
		}
	}
	if steadinessReport(recs, bs) {
		return 0
	}
	return 3
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runOnce runs this binary on one workload and seed and parses its
// result and diagnostics lines.
func runOnce(workload string, seed int64, seconds float64) (runRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return runRecord{}, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return runRecord{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	r := runRecord{Workload: workload, Seed: seed}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "diag "); ok {
			if err := json.Unmarshal([]byte(d), &r.Diag); err != nil {
				return r, fmt.Errorf("diag line: %w", err)
			}
		}
	}
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r.Result); err != nil {
		return r, fmt.Errorf("%s seed %d result line: %w", workload, seed, err)
	}
	return r, nil
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) (q1, med, q3, sp float64) {
	q1, med, q3 = quartiles(vals)
	return q1, med, q3, math.Abs(q3-q1) / math.Abs(med)
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// where better is "lower" or "higher" (negative = b is better).
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// steadinessReport prints the report and returns whether every (metric,
// workload) pair is resolved and the two sets agree.
func steadinessReport(recs []runRecord, bs benchSpec) bool {
	var wls []string
	seen := map[string]bool{}
	for _, r := range recs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			wls = append(wls, r.Workload)
		}
	}
	sort.Strings(wls)
	ok := true
	var unresolved []string
	fmt.Printf("%-15s %-12s %-5s %12s %12s %12s %8s %8s %10s %s\n", "workload", "metric", "set", "q1", "median", "q3", "spread", "bound", "B vs A", "verdict")
	for _, w := range wls {
		bySet := map[int][]runRecord{}
		for _, r := range recs {
			if r.Workload == w {
				bySet[r.Set] = append(bySet[r.Set], r)
			}
		}
		for _, m := range bs.EndToEnd {
			var meds [2]float64
			verdict := "agree"
			for set := 0; set < 2; set++ {
				var vals []float64
				for _, r := range bySet[set] {
					vals = append(vals, r.Result.Metrics[m.Name].Value)
				}
				if len(vals) == 0 {
					continue
				}
				q1, med, q3, sp := spread(vals)
				meds[set] = med
				diff := ""
				if set == 1 && meds[0] != 0 {
					wb := worseBy(meds[0], med, m.Better)
					diff = fmt.Sprintf("%+9.1f%%", 100*wb)
					if wb > m.Bound {
						verdict = "DISAGREE"
						ok = false
					}
				}
				if sp > m.Bound {
					verdict = "UNRESOLVED"
					unresolved = append(unresolved, fmt.Sprintf("%s/%s (set %c spread %.1f%% > bound %.0f%%)", w, m.Name, 'A'+set, 100*sp, 100*m.Bound))
					ok = false
				}
				v := ""
				if set == 1 {
					v = verdict
				}
				fmt.Printf("%-15s %-12s %-5c %12.5g %12.5g %12.5g %7.1f%% %7.0f%% %10s %s\n", w, m.Name, 'A'+set, q1, med, q3, 100*sp, 100*m.Bound, diff, v)
			}
		}
		for _, m := range wallClock {
			for set := 0; set < 2; set++ {
				var vals []float64
				for _, r := range bySet[set] {
					vals = append(vals, r.Diag[m.name])
				}
				if len(vals) > 0 {
					q1, med, q3, sp := spread(vals)
					fmt.Printf("%-15s %-12s %-5c %12.5g %12.5g %12.5g %7.1f%% %8s %10s %s\n", w, m.name, 'A'+set, q1, med, q3, 100*sp, "-", "", "unscaled or wall clock, not gated")
				}
			}
		}
		for set := 0; set < 2; set++ {
			var late, ccpu, scpu, steal, probe []float64
			for _, r := range bySet[set] {
				steal = append(steal, r.Diag["host_steal_frac"])
				probe = append(probe, r.Diag["probe_ms_per_unit"])
				late = append(late, r.Diag["gen_late_ms"])
				ccpu = append(ccpu, r.Diag["client_cpu_ms_per_op"])
				scpu = append(scpu, r.Diag["server_cpu_ms_per_op"])
			}
			if len(late) > 0 {
				_, _, _, psp := spread(probe)
				fmt.Printf("%-15s set %c: %d runs; median generator lateness %.3f ms; CPU per op client %.3f ms, engine process %.3f ms (unscaled); speed probe median %.4f ms/unit, spread %.1f%%; host steal median %.1f%% max %.1f%%\n",
					w, 'A'+set, len(late), median(late), median(ccpu), median(scpu), median(probe), 100*psp, 100*median(steal), 100*maxOf(steal))
			}
		}
	}
	if len(unresolved) > 0 {
		fmt.Println("unresolved (spread wider than the bound):")
		for _, u := range unresolved {
			fmt.Println("  " + u)
		}
	}
	if ok {
		fmt.Println("steadiness: the two sets agree within the benchmark's bounds")
	} else {
		fmt.Println("steadiness: NOT steady within the benchmark's bounds")
	}
	return ok
}

func maxOf(vals []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vals {
		m = math.Max(m, v)
	}
	return m
}
