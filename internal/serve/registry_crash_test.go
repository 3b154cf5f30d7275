package serve

import (
	"os"
	"path/filepath"
	"testing"

	"elsa"
)

// checkNoTempFiles asserts the write-fsync-rename protocol never leaks
// its staging files into the state dir.
func checkNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("temp files leaked into the state dir: %v", tmps)
	}
}

// TestRegistryCrashTornWrite simulates the crash the registry's
// write-fsync-rename protocol defends against: a threshold file truncated
// mid-write. A restarted registry must treat the torn entry as a miss,
// count and remove it, recalibrate, and persist a clean replacement that
// the next restart loads — never serve garbage or wedge on the same error
// forever.
func TestRegistryCrashTornWrite(t *testing.T) {
	dir := t.TempDir()
	opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim)
	const p = 0.4
	want := elsa.Threshold{P: p, T: -0.5, Queries: 64}

	// First server lifetime: calibrate once, persist.
	m1 := NewMetrics()
	r1 := newThresholdRegistry(dir, 0, m1)
	calibrations := 0
	calib := func() (elsa.Threshold, error) {
		calibrations++
		return want, nil
	}
	got, err := r1.get(opts, p, calib)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || calibrations != 1 {
		t.Fatalf("first get: thr %+v (want %+v), calibrations %d (want 1)", got, want, calibrations)
	}
	path := r1.path(thrKey{opts: opts, p: p})
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("threshold was not persisted: %v", err)
	}
	checkNoTempFiles(t, dir)

	// Crash: the file survives but only half its bytes made it.
	if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Second lifetime: the torn entry is a counted, removed miss...
	m2 := NewMetrics()
	r2 := newThresholdRegistry(dir, 0, m2)
	if thr, ok := r2.lookup(opts, p); ok {
		t.Fatalf("lookup returned %+v from a torn file", thr)
	}
	if n := m2.thresholdCorrupt.value(); n != 1 {
		t.Fatalf("threshold corruptions %d, want 1", n)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("torn file was not removed (stat err %v)", err)
	}
	// ...and get recalibrates rather than tripping on it again.
	calibrations = 0
	got, err = r2.get(opts, p, calib)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || calibrations != 1 {
		t.Fatalf("recover get: thr %+v, calibrations %d (want 1)", got, calibrations)
	}
	if n := m2.thresholdCorrupt.value(); n != 1 {
		t.Fatalf("recalibration must not re-count the corruption, got %d", n)
	}
	checkNoTempFiles(t, dir)

	// Third lifetime: the replacement loads from disk, no calibration.
	m3 := NewMetrics()
	r3 := newThresholdRegistry(dir, 0, m3)
	got, err = r3.get(opts, p, func() (elsa.Threshold, error) {
		t.Fatal("third lifetime must load from disk, not calibrate")
		return elsa.Threshold{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reloaded thr %+v, want %+v", got, want)
	}
	if m3.thresholdLoads.value() != 1 {
		t.Fatalf("threshold loads %d, want 1", m3.thresholdLoads.value())
	}
}

// TestRegistryCrashEmptyFile covers the zero-byte flavour of a torn write
// (crash between create and first byte): skip, count, remove, recalibrate.
func TestRegistryCrashEmptyFile(t *testing.T) {
	dir := t.TempDir()
	opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim)
	const p = 0.7

	m := NewMetrics()
	r := newThresholdRegistry(dir, 0, m)
	path := r.path(thrKey{opts: opts, p: p})
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.lookup(opts, p); ok {
		t.Fatal("lookup succeeded on an empty threshold file")
	}
	if n := m.thresholdCorrupt.value(); n != 1 {
		t.Fatalf("threshold corruptions %d, want 1", n)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("empty file was not removed (stat err %v)", err)
	}
	want := elsa.Threshold{P: p, T: -1.25, Queries: 32}
	got, err := r.get(opts, p, func() (elsa.Threshold, error) { return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("recalibrated thr %+v, want %+v", got, want)
	}
	checkNoTempFiles(t, dir)
}

// TestRegistryMismatchedPIgnoredNotRemoved pins the boundary of the
// corruption path: a file that parses but stores a different p (hash
// collision or hand-edited state) is ignored, not destroyed.
func TestRegistryMismatchedPIgnoredNotRemoved(t *testing.T) {
	dir := t.TempDir()
	opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim)
	const p = 0.3

	m := NewMetrics()
	r := newThresholdRegistry(dir, 0, m)
	path := r.path(thrKey{opts: opts, p: p})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := elsa.SaveThreshold(f, elsa.Threshold{P: 0.9, T: -2, Queries: 8}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, ok := r.lookup(opts, p); ok {
		t.Fatal("lookup accepted a threshold calibrated for a different p")
	}
	if n := m.thresholdCorrupt.value(); n != 0 {
		t.Fatalf("a parseable mismatch is not corruption, counted %d", n)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("mismatched file must be left in place: %v", err)
	}
}
