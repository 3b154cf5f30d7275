package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"elsa"
)

// thresholdFiles lists the threshold entries currently in dir.
func thresholdFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "threshold-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestThresholdRegistryEvictsBeyondCap pins the state dir's LRU: saving
// past maxFiles removes the oldest threshold files (by mtime), counts
// each eviction, and never touches non-threshold state (spilled session
// files share the dir).
func TestThresholdRegistryEvictsBeyondCap(t *testing.T) {
	dir := t.TempDir()
	// A bystander session-state file must survive every eviction pass.
	bystander := filepath.Join(dir, "session-deadbeef.state")
	if err := os.WriteFile(bystander, []byte("not a threshold"), 0o644); err != nil {
		t.Fatal(err)
	}

	m := NewMetrics()
	r := newThresholdRegistry(dir, 2, m)
	const p = 0.3
	for i := 0; i < 4; i++ {
		opts := normalizeOptions(elsa.Options{HeadDim: 16 + 16*i, Seed: 5}, 16+16*i)
		thr := elsa.Threshold{P: p, T: float64(i), Queries: 8}
		if _, err := r.get(opts, p, func() (elsa.Threshold, error) { return thr, nil }); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		// Distinct mtimes make the LRU order deterministic even on
		// coarse-grained filesystems.
		past := time.Now().Add(time.Duration(i-10) * time.Second)
		if err := os.Chtimes(r.path(thrKey{opts: opts, p: p}), past, past); err != nil {
			t.Fatal(err)
		}
	}
	// The 4th save ran enforceCap before the backdated mtime landed, so
	// run one more pass the way the next save would.
	r.enforceCap()

	files := thresholdFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("state dir holds %d threshold files, want cap of 2: %v", len(files), files)
	}
	if m.thresholdEvicts.value() == 0 {
		t.Error("eviction counter never moved")
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Errorf("eviction pass removed a non-threshold state file: %v", err)
	}

	// The survivors are the most recently used operating points: the two
	// newest mtimes (i = 2 and 3).
	for _, i := range []int{2, 3} {
		opts := normalizeOptions(elsa.Options{HeadDim: 16 + 16*i, Seed: 5}, 16+16*i)
		want := r.path(thrKey{opts: opts, p: p})
		found := false
		for _, f := range files {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("recently used threshold %d missing after eviction: %v", i, fmt.Sprint(files))
		}
	}

	// An unbounded registry (maxFiles 0) never evicts.
	dir2 := t.TempDir()
	r2 := newThresholdRegistry(dir2, 0, m)
	for i := 0; i < 4; i++ {
		opts := normalizeOptions(elsa.Options{HeadDim: 16 + 16*i, Seed: 6}, 16+16*i)
		thr := elsa.Threshold{P: p, T: float64(i), Queries: 8}
		if _, err := r2.get(opts, p, func() (elsa.Threshold, error) { return thr, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := thresholdFiles(t, dir2); len(got) != 4 {
		t.Fatalf("unbounded registry holds %d files, want 4", len(got))
	}
}
