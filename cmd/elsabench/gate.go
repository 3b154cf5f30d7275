package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"elsa/internal/experiments"
)

// gate is one row of the trajectory comparator's table: one metric of one
// row family in a BENCH_*.json snapshot, matched across two snapshots by
// its key fields.
type gate struct {
	// key is the snapshot's top-level JSON key holding the family's rows.
	key string
	// fields identify one operating point within the family.
	fields []string
	// metric is the JSON field compared; rows lacking it are skipped.
	metric string
	// higher marks metrics where larger is better.
	higher bool
	// check, when set, runs absolute checks on the new snapshot's rows
	// alone, whether or not the baseline has the family.
	check func(w io.Writer, rows []row) []string
}

// gates is the whole trajectory comparator: every family a committed
// snapshot carries, with the metric each point is held to.
var gates = []gate{
	{key: "bench", fields: []string{"dataset", "n", "d", "p"}, metric: "ns_per_op"},
	{key: "migrate", fields: []string{"tokens", "cold_watermark"}, metric: "migrations_per_sec", higher: true},
	{key: "migrate", fields: []string{"tokens", "cold_watermark"}, metric: "resident_bytes"},
	{key: "autoscale", fields: []string{"scenario"}, metric: "converge_ms"},
	{key: "autoscale", fields: []string{"scenario"}, metric: "mirror_ns_per_token"},
	{key: "exact", fields: []string{"workload", "backend"}, metric: "stream_tokens_per_sec", higher: true, check: exactChecks},
}

// row is one decoded snapshot row: JSON numbers are float64.
type row map[string]any

// snapshot is a BENCH_*.json file: row families by top-level key.
type snapshot map[string][]row

// loadSnapshot reads a committed BENCH_*.json file.
func loadSnapshot(path string) (snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSnapshot(path, data)
}

// parseSnapshot decodes the families the gates read; other top-level
// keys are ignored.
func parseSnapshot(name string, data []byte) (snapshot, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	snap := snapshot{}
	for _, g := range gates {
		msg, ok := raw[g.key]
		if !ok || snap[g.key] != nil {
			continue
		}
		var rows []row
		if err := json.Unmarshal(msg, &rows); err != nil {
			return nil, fmt.Errorf("parse %s %q rows: %w", name, g.key, err)
		}
		snap[g.key] = rows
	}
	return snap, nil
}

// point renders a row's key fields, e.g. "sessions=16 mode=step".
func (r row) point(fields []string) string {
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = fmt.Sprintf("%s=%v", f, r[f])
	}
	return strings.Join(parts, " ")
}

// compareSnapshots gates cur against base on every family the two
// snapshots share. It prints one line per compared point and returns
// each point whose metric moved the wrong way by more than maxRegress
// (e.g. 0.15 = 15%), plus every failed absolute check. Families and
// points present in only one snapshot are skipped: the trajectory only
// gates comparable measurements. Two snapshots that share no family
// are an error, not a pass.
func compareSnapshots(w io.Writer, cur, base snapshot, maxRegress float64) ([]string, error) {
	var failures []string
	shared := false
	for _, g := range gates {
		rows, old := cur[g.key], base[g.key]
		if g.check != nil && len(rows) > 0 {
			failures = append(failures, g.check(w, rows)...)
		}
		if len(rows) == 0 || len(old) == 0 {
			if len(rows) > 0 {
				fmt.Fprintf(w, "%s rows absent from the baseline; skipping the %s gate\n", g.key, g.metric)
			} else if len(old) > 0 {
				fmt.Fprintf(w, "%s rows absent from the new snapshot; skipping the %s gate\n", g.key, g.metric)
			}
			continue
		}
		shared = true
		prev := make(map[string]float64, len(old))
		for _, r := range old {
			if v, ok := r[g.metric].(float64); ok {
				prev[r.point(g.fields)] = v
			}
		}
		for _, r := range rows {
			pt := r.point(g.fields)
			v, ok := r[g.metric].(float64)
			was, seen := prev[pt]
			if !ok || !seen || was <= 0 {
				continue
			}
			ratio := v / was
			fmt.Fprintf(w, "%-9s %-36s %-21s %10s vs baseline %10s (%.2fx)\n",
				g.key, pt, g.metric, num(v), num(was), ratio)
			if (g.higher && ratio < 1-maxRegress) || (!g.higher && ratio > 1+maxRegress) {
				failures = append(failures, fmt.Sprintf("%s %s: %s %s -> %s (%+.0f%%)",
					g.key, pt, g.metric, num(was), num(v), 100*(ratio-1)))
			}
		}
	}
	if !shared {
		return nil, fmt.Errorf("the two snapshots share no gated family")
	}
	return failures, nil
}

// num renders a metric value: whole units at and above 1000, two
// decimals below.
func num(v float64) string {
	if v >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// exactChecks holds the exact-backend family to the two properties the
// linear-scan backend exists for: every row inside the pinned
// differential bound, and linear-scan bytes/op under the scores
// backend's on the same workload (the memory ceiling).
func exactChecks(w io.Writer, rows []row) []string {
	var failures []string
	scores := make(map[any]float64)
	for _, r := range rows {
		if r["backend"] == "scores" {
			scores[r["workload"]], _ = r["bytes_per_op"].(float64)
		}
	}
	for _, r := range rows {
		pt := r.point([]string{"workload", "backend"})
		boundOK, _ := r["bound_ok"].(bool)
		fmt.Fprintf(w, "exact     %-36s bound_ok=%v (max %v ULP)\n", pt, boundOK, r["max_ulp"])
		if !boundOK {
			failures = append(failures, fmt.Sprintf(
				"exact %s: backends disagree beyond the pinned differential bound", pt))
		}
		if r["backend"] != "linear-scan" {
			continue
		}
		sb, ok := scores[r["workload"]]
		if !ok {
			continue
		}
		b, _ := r["bytes_per_op"].(float64)
		fmt.Fprintf(w, "exact     %-36s bytes_per_op %.0f vs scores %.0f\n", pt, b, sb)
		if b >= sb {
			failures = append(failures, fmt.Sprintf(
				"exact %s: bytes_per_op %.0f >= scores %.0f, memory ceiling lost", pt, b, sb))
		}
	}
	return failures
}

// runGate is -baseline mode: gate against a committed snapshot, either
// a fresh "bench" measurement or, with -compare, a second committed
// snapshot. It exits 2 on a regression.
func runGate(opt experiments.Options, baselinePath, comparePath, jsonOut string, maxRegress float64) error {
	base, err := loadSnapshot(baselinePath)
	if err != nil {
		return err
	}
	var cur snapshot
	if comparePath != "" {
		// Two committed trajectory files: no measurement, just the gate.
		if cur, err = loadSnapshot(comparePath); err != nil {
			return err
		}
	} else {
		rows, err := benchRows(opt)
		if err != nil {
			return err
		}
		payload := map[string]any{"bench": rows}
		if jsonOut != "" {
			if err := writeJSONPayload(payload, jsonOut); err != nil {
				return err
			}
		}
		data, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		if cur, err = parseSnapshot("measurement", data); err != nil {
			return err
		}
	}
	failures, err := compareSnapshots(os.Stdout, cur, base, maxRegress)
	if err != nil {
		return err
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "elsabench: trajectory regressed >%.0f%% vs %s:\n  %s\n",
			100*maxRegress, baselinePath, strings.Join(failures, "\n  "))
		os.Exit(2)
	}
	fmt.Printf("trajectory OK: nothing regressed >%.0f%% vs %s\n", 100*maxRegress, baselinePath)
	return nil
}
