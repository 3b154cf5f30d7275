package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// committed resolves a snapshot committed at the repository root.
func committed(name string) string { return filepath.Join("..", "..", name) }

// ratio is one compared point's expected printed ratio.
type ratio struct{ key, point, metric, want string }

// TestGateCommittedTrajectory replays the comparator over every adjacent
// pair of committed snapshots. Each pair that shares a gated family must
// pass, and the sampled points must print the ratios the gate printed
// when the pair was committed. A pair that shares none is an error.
func TestGateCommittedTrajectory(t *testing.T) {
	for _, tc := range []struct {
		newer, older string
		disjoint     bool // the pair shares no gated family
		ratios       []ratio
		lines        []string // further output the pair must print
	}{
		{
			newer: "BENCH_2026-08-05_pr2_hotpath.json", older: "BENCH_2026-08-05_pr2_baseline.json",
			ratios: []ratio{
				{"bench", "dataset=SQuADv1.1 n=256 d=64 p=0", "ns_per_op", "0.75x"},
				{"bench", "dataset=SQuADv1.1 n=512 d=64 p=1", "ns_per_op", "0.71x"},
				{"bench", "dataset=SQuADv1.1 n=512 d=64 p=2", "ns_per_op", "0.74x"},
			},
		},
		{
			newer: "BENCH_2026-10-17_pr14b_kernels.json", older: "BENCH_2026-10-17_pr14a_parent.json",
			ratios: []ratio{
				{"bench", "dataset=SQuADv1.1 n=256 d=64 p=0", "ns_per_op", "0.81x"},
				{"bench", "dataset=SQuADv1.1 n=512 d=64 p=1", "ns_per_op", "0.73x"},
				{"bench", "dataset=SQuADv1.1/decode n=256 d=64 p=1", "ns_per_op", "0.71x"},
			},
		},
		{
			newer: "BENCH_2026-10-19_pr22b_kernels.json", older: "BENCH_2026-10-19_pr22a_parent.json",
			ratios: []ratio{
				{"bench", "dataset=SQuADv1.1 n=256 d=64 p=1", "ns_per_op", "0.71x"},
				{"bench", "dataset=SQuADv1.1/decode n=256 d=64 p=1", "ns_per_op", "0.65x"},
			},
		},
		{
			newer: "BENCH_2026-10-19_pr23b_kernels.json", older: "BENCH_2026-10-19_pr23a_parent.json",
			ratios: []ratio{
				{"bench", "dataset=SQuADv1.1 n=256 d=64 p=0", "ns_per_op", "0.29x"},
				{"bench", "dataset=SQuADv1.1 n=512 d=64 p=1", "ns_per_op", "0.30x"},
				{"bench", "dataset=SQuADv1.1/decode n=256 d=64 p=1", "ns_per_op", "0.39x"},
			},
		},
		{
			newer: "BENCH_2026-10-19_pr24b_kernels.json", older: "BENCH_2026-10-19_pr24a_parent.json",
			ratios: []ratio{
				{"bench", "dataset=SQuADv1.1 n=256 d=64 p=0", "ns_per_op", "0.64x"},
				{"bench", "dataset=SQuADv1.1 n=512 d=64 p=1", "ns_per_op", "0.48x"},
				{"bench", "dataset=SQuADv1.1/decode n=256 d=64 p=1", "ns_per_op", "0.54x"},
			},
		},
		// The pr5-pr8 serving snapshots carry only the retired serve and
		// decode families in common.
		{newer: "BENCH_2026-08-08_pr6_serving.json", older: "BENCH_2026-08-05_pr5_serving.json", disjoint: true},
		{newer: "BENCH_2026-08-08_pr7_serving.json", older: "BENCH_2026-08-08_pr6_serving.json", disjoint: true},
		{newer: "BENCH_2026-08-08_pr8_serving.json", older: "BENCH_2026-08-08_pr7_serving.json", disjoint: true},
		{
			newer: "BENCH_2026-08-08_pr9_serving.json", older: "BENCH_2026-08-08_pr8_serving.json",
			ratios: []ratio{
				{"migrate", "tokens=1024 cold_watermark=512", "migrations_per_sec", "1.27x"},
				{"migrate", "tokens=4096 cold_watermark=512", "resident_bytes", "1.00x"},
			},
		},
		{
			newer: "BENCH_2026-08-08_pr10_serving.json", older: "BENCH_2026-08-08_pr9_serving.json",
			ratios: []ratio{
				{"migrate", "tokens=4096 cold_watermark=0", "migrations_per_sec", "0.91x"},
				{"autoscale", "scenario=rebalance", "converge_ms", "1.13x"},
				{"autoscale", "scenario=mirror-batched", "mirror_ns_per_token", "1.01x"},
			},
			// The baseline has no exact rows, so only the absolute checks
			// can run.
			lines: []string{
				"bytes_per_op 57904 vs scores 213088",
				"bytes_per_op 262704 vs scores 4456576",
				"exact rows absent from the baseline",
			},
		},
	} {
		t.Run(tc.newer, func(t *testing.T) {
			cur, err := loadSnapshot(committed(tc.newer))
			if err != nil {
				t.Fatal(err)
			}
			base, err := loadSnapshot(committed(tc.older))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			failures, err := compareSnapshots(&out, cur, base, 0.15)
			if tc.disjoint {
				if err == nil || !strings.Contains(err.Error(), "share no gated family") {
					t.Fatalf("err = %v, want the no-shared-family error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(failures) > 0 {
				t.Errorf("committed pair fails the gate: %v", failures)
			}
			for _, r := range tc.ratios {
				if !hasRatio(out.String(), r) {
					t.Errorf("no %s %s %s line ending in (%s) in:\n%s", r.key, r.point, r.metric, r.want, out.String())
				}
			}
			for _, l := range tc.lines {
				if !strings.Contains(out.String(), l) {
					t.Errorf("output lacks %q:\n%s", l, out.String())
				}
			}
		})
	}
}

// hasRatio reports whether out holds the comparison line for r.
func hasRatio(out string, r ratio) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && f[0] == r.key && strings.Contains(line, r.point+" ") &&
			strings.Contains(line, " "+r.metric+" ") && strings.HasSuffix(line, "("+r.want+")") {
			return true
		}
	}
	return false
}

// TestGateExactChecksWithoutBaseline pins the exact family's absolute
// checks: they run on the new snapshot even when the baseline predates
// the family, so an out-of-bound row or a lost memory ceiling fails.
func TestGateExactChecksWithoutBaseline(t *testing.T) {
	base, err := loadSnapshot(committed("BENCH_2026-08-08_pr9_serving.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base["exact"]) != 0 {
		t.Fatal("baseline unexpectedly carries exact rows")
	}
	// One migrate row gives the pair a family in common.
	const migrate = `"migrate": [{"tokens": 0, "cold_watermark": 0}]`
	for _, tc := range []struct {
		name, exact, want string
	}{
		{
			name: "bound",
			exact: `[{"workload": "w", "backend": "scores", "bytes_per_op": 1000, "max_ulp": 9, "bound_ok": true},
			         {"workload": "w", "backend": "linear-scan", "bytes_per_op": 10, "max_ulp": 9, "bound_ok": false}]`,
			want: "differential bound",
		},
		{
			name: "memory ceiling",
			exact: `[{"workload": "w", "backend": "scores", "bytes_per_op": 1000, "bound_ok": true},
			         {"workload": "w", "backend": "linear-scan", "bytes_per_op": 1000, "bound_ok": true}]`,
			want: "memory ceiling",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur, err := parseSnapshot("test", []byte(fmt.Sprintf(`{%s, "exact": %s}`, migrate, tc.exact)))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			failures, err := compareSnapshots(&out, cur, base, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			if len(failures) != 1 || !strings.Contains(failures[0], tc.want) {
				t.Errorf("failures = %v, want one naming %q", failures, tc.want)
			}
		})
	}
}

// TestGateFlagsRegression reverses the committed engine pair: read
// backwards, every operating point slowed by well over 15%. A bench
// snapshot compared against a serving snapshot shares no family, and
// is an error rather than a pass.
func TestGateFlagsRegression(t *testing.T) {
	fast, err := loadSnapshot(committed("BENCH_2026-08-05_pr2_hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := loadSnapshot(committed("BENCH_2026-08-05_pr2_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	failures, err := compareSnapshots(&out, slow, fast, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != len(slow["bench"]) {
		t.Errorf("%d failures, want one per bench row (%d): %v", len(failures), len(slow["bench"]), failures)
	}
	serving, err := loadSnapshot(committed("BENCH_2026-08-08_pr10_serving.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compareSnapshots(&out, slow, serving, 0.15); err == nil {
		t.Error("bench snapshot gated against a serving snapshot: want an error, they share no family")
	}
}
