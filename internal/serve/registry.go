package serve

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"elsa"
)

// thrKey identifies one calibrated operating point: a resolved engine
// configuration at a degree of approximation. Keyed by value (Options is
// comparable), so the registry outlives pool evictions of the engines
// themselves.
type thrKey struct {
	opts elsa.Options
	p    float64
}

// thrEntry is one registry slot; ready is closed once thr/err are set so
// concurrent first requests share a single calibration.
type thrEntry struct {
	ready chan struct{}
	thr   elsa.Threshold
	err   error
}

// thresholdRegistry is the per-(engine options, p) threshold cache behind
// the serving layer. With a state directory it is persistent: calibrated
// thresholds are written via elsa.SaveThreshold and a restarted server
// loads them back (elsa.LoadThreshold) instead of re-running Calibrate on
// its first request — the paper's calibrate-offline, serve-online split.
type thresholdRegistry struct {
	dir      string // "" = in-memory only
	maxFiles int    // on-disk threshold file cap; 0 = unbounded
	metrics  *Metrics

	mu      sync.Mutex
	entries map[thrKey]*thrEntry
}

func newThresholdRegistry(dir string, maxFiles int, m *Metrics) *thresholdRegistry {
	if dir != "" {
		// Best effort: a failed mkdir degrades to in-process caching with
		// failed (ignored) saves; serving itself is unaffected.
		os.MkdirAll(dir, 0o755) //nolint:errcheck
	}
	return &thresholdRegistry{dir: dir, maxFiles: maxFiles, metrics: m, entries: make(map[thrKey]*thrEntry)}
}

// get resolves the threshold for (opts, p) in order: memory, state-dir
// file, fresh calibration via calib (invoked at most once per key across
// concurrent requesters). p = 0 is always the exact operating point. A
// failed calibration is not cached: the next request retries.
func (r *thresholdRegistry) get(opts elsa.Options, p float64, calib func() (elsa.Threshold, error)) (elsa.Threshold, error) {
	if p == 0 {
		return elsa.Exact(), nil
	}
	key := thrKey{opts: opts, p: p}
	r.mu.Lock()
	e, ok := r.entries[key]
	if ok {
		r.mu.Unlock()
		<-e.ready
		return e.thr, e.err
	}
	e = &thrEntry{ready: make(chan struct{})}
	r.entries[key] = e
	r.mu.Unlock()

	e.thr, e.err = r.resolve(key, calib)
	if e.err != nil {
		r.mu.Lock()
		if cur, ok := r.entries[key]; ok && cur == e {
			delete(r.entries, key)
		}
		r.mu.Unlock()
	}
	close(e.ready)
	return e.thr, e.err
}

// lookup reports the threshold for (opts, p) if it is already resolvable
// without calibrating: cached in memory or persisted in the state dir.
func (r *thresholdRegistry) lookup(opts elsa.Options, p float64) (elsa.Threshold, bool) {
	if p == 0 {
		return elsa.Exact(), true
	}
	key := thrKey{opts: opts, p: p}
	r.mu.Lock()
	e, ok := r.entries[key]
	r.mu.Unlock()
	if ok {
		<-e.ready
		if e.err == nil {
			return e.thr, true
		}
		return elsa.Threshold{}, false
	}
	if thr, ok := r.load(key); ok {
		// Cache the disk hit so later lookups skip the file read.
		r.mu.Lock()
		if _, exists := r.entries[key]; !exists {
			done := &thrEntry{ready: make(chan struct{}), thr: thr}
			close(done.ready)
			r.entries[key] = done
		}
		r.mu.Unlock()
		return thr, true
	}
	return elsa.Threshold{}, false
}

// resolve loads the persisted threshold or calibrates and persists one.
func (r *thresholdRegistry) resolve(key thrKey, calib func() (elsa.Threshold, error)) (elsa.Threshold, error) {
	if thr, ok := r.load(key); ok {
		return thr, nil
	}
	thr, err := calib()
	if err != nil {
		return elsa.Threshold{}, err
	}
	r.metrics.calibrations.add(1)
	r.save(key, thr)
	return thr, nil
}

// load reads a previously persisted threshold for key. A file that fails
// to parse — a torn write from a crash before fsync semantics landed, or
// disk corruption — is removed so the operating point recalibrates
// cleanly instead of tripping on the same opaque error every restart.
// Files whose stored p disagrees with the key (a hash collision or a
// stale hand-edited file) are left alone but ignored.
func (r *thresholdRegistry) load(key thrKey) (elsa.Threshold, bool) {
	if r.dir == "" {
		return elsa.Threshold{}, false
	}
	path := r.path(key)
	f, err := os.Open(path)
	if err != nil {
		return elsa.Threshold{}, false
	}
	defer f.Close()
	thr, err := elsa.LoadThreshold(f)
	if err != nil {
		r.metrics.thresholdCorrupt.add(1)
		os.Remove(path) //nolint:errcheck // best effort; a miss recalibrates anyway
		return elsa.Threshold{}, false
	}
	if thr.P != key.p {
		return elsa.Threshold{}, false
	}
	// A load is a use: refresh the file's mtime so the eviction cap (see
	// enforceCap) removes the operating points nobody asks for anymore.
	now := time.Now()
	os.Chtimes(path, now, now) //nolint:errcheck // LRU hint only
	r.metrics.thresholdLoads.add(1)
	return thr, true
}

// save persists a calibrated threshold, best effort: serving never fails
// because the state dir is read-only. Write-fsync-rename keeps a crashed
// server (or machine) from leaving a truncated file a restart would
// reject: the data is durable before the name points at it.
func (r *thresholdRegistry) save(key thrKey, thr elsa.Threshold) {
	if r.dir == "" {
		return
	}
	tmp, err := os.CreateTemp(r.dir, "threshold-*.tmp")
	if err != nil {
		return
	}
	if err := elsa.SaveThreshold(tmp, thr); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), r.path(key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	// Durable rename needs the directory entry flushed too; a failure
	// here only risks losing the entry on power loss, never corruption.
	if d, err := os.Open(r.dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
	r.enforceCap()
}

// enforceCap removes the oldest threshold files beyond maxFiles, by
// modification time — the state dir's LRU. Loads refresh their file's
// mtime, so operating points still in use survive; other state-dir
// files (spilled sessions) are neither counted nor touched.
func (r *thresholdRegistry) enforceCap() {
	if r.maxFiles <= 0 {
		return
	}
	dirents, err := os.ReadDir(r.dir)
	if err != nil {
		return
	}
	type tf struct {
		name string
		mod  time.Time
	}
	var files []tf
	for _, e := range dirents {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "threshold-") || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, tf{e.Name(), info.ModTime()})
	}
	if len(files) <= r.maxFiles {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod.Before(files[j].mod) })
	for _, f := range files[:len(files)-r.maxFiles] {
		if os.Remove(filepath.Join(r.dir, f.name)) == nil {
			r.metrics.thresholdEvicts.add(1)
		}
	}
}

// path derives a stable filename from the full operating point, so the
// same configuration maps to the same file across restarts.
func (r *thresholdRegistry) path(key thrKey) string {
	h := fnv.New64a()
	o := key.opts
	fmt.Fprintf(h, "d=%d k=%d quant=%t scale=%g seed=%d hw=%+v p=%g",
		o.HeadDim, o.HashBits, o.Quantized, o.Scale, o.Seed, o.Hardware, key.p)
	return filepath.Join(r.dir, fmt.Sprintf("threshold-%016x.json", h.Sum64()))
}
