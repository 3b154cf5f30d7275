package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"elsa"
)

// decodeFixture holds one registry-level session with a deterministic
// per-session operating point and prefix, plus a plain elsa.Stream
// reference built from the same options and appends, so the server's
// decode trajectory can be compared step for step against the library.
type decodeFixture struct {
	id  string
	p   float64
	t   *float64
	rng *rand.Rand

	ref *elsa.Stream
	eng *elsa.Engine
	// thr is the reference's resolved operating point; calibrated is false
	// until the first query calibrates a lazy p over the prefix.
	thr        elsa.Threshold
	calibrated bool
}

// buildDecodeSessions creates n sessions on srv with a spread of
// operating points: explicitly pinned thresholds, p values that
// calibrate lazily over each session's own prefix (unique per session so
// the threshold registry's dedup cannot couple them), and p = 0 exact.
// Each session gets a deterministic prefix seeded by its index, appended
// to both the session and its reference stream.
func buildDecodeSessions(t *testing.T, srv *Server, opts elsa.Options, n, prefix int) []*decodeFixture {
	t.Helper()
	set, err := srv.pool.get(opts)
	if err != nil {
		t.Fatalf("pool.get: %v", err)
	}
	ctx := context.Background()
	fixtures := make([]*decodeFixture, n)
	for i := 0; i < n; i++ {
		f := &decodeFixture{rng: rand.New(rand.NewSource(int64(100 + i)))}
		switch i % 3 {
		case 0: // pinned threshold, varying per session
			tv := 0.3 + 0.07*float64(i)
			f.t, f.p = &tv, 1
			f.thr, f.calibrated = elsa.Threshold{P: f.p, T: tv}, true
		case 1: // lazily calibrated p, unique per session
			f.p = 0.5 + 0.25*float64(i)
		default: // exact
			f.p = 0
			f.thr, f.calibrated = elsa.Exact(), true
		}
		sess, err := srv.sessions.create(ctx, set, opts, f.p, f.t, "", prefix, requestMeta{})
		if err != nil {
			t.Fatalf("session %d create: %v", i, err)
		}
		f.id = sess.id
		if f.eng, err = elsa.New(opts); err != nil {
			t.Fatalf("reference engine: %v", err)
		}
		f.ref = f.eng.NewStream(prefix)
		keys := make([][]float32, prefix)
		vals := make([][]float32, prefix)
		for j := range keys {
			keys[j], vals[j] = genVec(f.rng), genVec(f.rng)
			if err := f.ref.Append(keys[j], vals[j]); err != nil {
				t.Fatalf("session %d reference append: %v", i, err)
			}
		}
		if _, err := srv.sessions.append(ctx, f.id, keys, vals); err != nil {
			t.Fatalf("session %d append: %v", i, err)
		}
		fixtures[i] = f
	}
	return fixtures
}

// query answers one decode step on the reference stream the way a
// session does: a lazy p calibrates once over the prefix so far, then
// the query runs QueryOverrides against the pinned operating point.
func (f *decodeFixture) query(q []float32, ov elsa.Overrides) ([]float32, elsa.StreamStats, error) {
	if !f.calibrated && ov.Thr == nil {
		keys := f.ref.Keys()
		thr, err := f.eng.Calibrate(f.p, []elsa.Sample{{Q: keys, K: keys}})
		if err != nil {
			return nil, elsa.StreamStats{}, err
		}
		f.thr, f.calibrated = thr, true
	}
	return f.ref.QueryOverrides(nil, q, ov, f.thr)
}

// TestDecodeContinuousMatchesSerial pins the tentpole fidelity contract:
// N sessions with different pinned thresholds and p values, decoded
// concurrently through the dispatcher's coalesced batches, must produce
// bit-identical context vectors and equal stream stats to one plain
// elsa.Stream per session queried serially through the library. Run
// under -race this also exercises the submit/complete handoff against
// concurrent appends-after-query.
func TestDecodeContinuousMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name      string
		quantized bool
	}{
		{"float", false},
		{"quantized", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed, Quantized: tc.quantized}, testDim)
			batched := New(Config{Replicas: 2})
			defer batched.Close()

			const sessions, prefix, steps = 8, 24, 10
			bf := buildDecodeSessions(t, batched, opts, sessions, prefix)
			set, err := batched.pool.get(opts)
			if err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			override := 0.85
			for step := 0; step < steps; step++ {
				// One query per session per step, pre-generated so the
				// concurrent driver and the reference consume identical
				// inputs.
				qs := make([][]float32, sessions)
				ovs := make([]elsa.Overrides, sessions)
				for i, f := range bf {
					qs[i] = genVec(f.rng)
					if i%2 == 0 && step%3 == 2 {
						ovs[i] = elsa.Overrides{Thr: &elsa.Threshold{T: override}}
					}
				}

				// The first step holds every lane busy until all sessions'
				// queries have queued, so they must leave as one batch.
				var gates []*laneGate
				if step == 0 {
					gates = gateLanes(batched.disp, set)
					defer openAll(gates)
					occupy(t, batched.disp, set, gates)
				}
				got := make([][]float32, sessions)
				gotStats := make([]elsa.StreamStats, sessions)
				var wg sync.WaitGroup
				for i := range bf {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						out, stats, _, _, size, err := batched.sessions.query(ctx, bf[i].id, qs[i], ovs[i], time.Time{})
						if err != nil {
							t.Errorf("step %d session %d batched query: %v", step, i, err)
							return
						}
						if gates != nil && size != sessions {
							t.Errorf("step %d session %d rode a batch of %d, want all %d queued queries", step, i, size, sessions)
						}
						got[i], gotStats[i] = out, stats
					}(i)
				}
				if gates != nil {
					waitQueued(t, batched.disp, sessions)
					openAll(gates)
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}

				for i, f := range bf {
					want, wantStats, err := f.query(qs[i], ovs[i])
					if err != nil {
						t.Fatalf("step %d session %d reference query: %v", step, i, err)
					}
					if gotStats[i] != wantStats {
						t.Fatalf("step %d session %d: stats %+v batched, %+v reference", step, i, gotStats[i], wantStats)
					}
					if len(got[i]) != len(want) {
						t.Fatalf("step %d session %d: context length %d batched, %d reference", step, i, len(got[i]), len(want))
					}
					for j := range want {
						if got[i][j] != want[j] {
							t.Fatalf("step %d session %d: context[%d] = %v batched, %v reference (not bit-identical)",
								step, i, j, got[i][j], want[j])
						}
					}
					// Feed the step's context back as the next token on both
					// sides, so any divergence compounds and cannot hide.
					if _, err := batched.sessions.append(ctx, f.id, [][]float32{got[i]}, [][]float32{got[i]}); err != nil {
						t.Fatalf("batched feedback append: %v", err)
					}
					if err := f.ref.Append(want, want); err != nil {
						t.Fatalf("reference feedback append: %v", err)
					}
				}
			}

			// The batched server must actually have coalesced: batches of
			// size > 1 are where the speedup comes from.
			if c := batched.metrics.decodeCoalesced.value(); c == 0 {
				t.Errorf("decode never coalesced across %d concurrent queries", sessions*steps)
			}
			if b := batched.metrics.decodeBatches.value(); b == 0 {
				t.Errorf("no decode batches recorded")
			}
		})
	}
}

// TestDecodeCycleZeroAlloc pins the decode hot path's allocation story:
// after warm-up, one steady-state queryInto — session gate, submit,
// kick, harvest, dispatch, stream attend, write-back —
// performs zero heap allocations per query. The companion of
// TestAttendWithZeroAlloc one layer up the stack; ci.sh runs it
// explicitly so it cannot be skipped.
func TestDecodeCycleZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name      string
		quantized bool
	}{
		{"float", false},
		{"quantized", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed, Quantized: tc.quantized}, testDim)
			srv := New(Config{Replicas: 1, Workers: 1})
			defer srv.Close()
			set, err := srv.pool.get(opts)
			if err != nil {
				t.Fatalf("pool.get: %v", err)
			}
			ctx := context.Background()
			tv := 0.5
			sess, err := srv.sessions.create(ctx, set, opts, 1, &tv, "", 64, requestMeta{})
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			rng := rand.New(rand.NewSource(testSeed))
			for i := 0; i < 32; i++ {
				if _, err := srv.sessions.append(ctx, sess.id, [][]float32{genVec(rng)}, [][]float32{genVec(rng)}); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			q := genVec(rng)
			dst := make([]float32, testDim)
			var ov elsa.Overrides
			// Warm up: grow the decode queue, the lane's harvest buffer, and
			// the backend's staging slices to steady size.
			for i := 0; i < 4; i++ {
				out, _, _, _, _, err := srv.sessions.queryInto(ctx, sess.id, dst, q, ov, time.Time{})
				if err != nil {
					t.Fatalf("warm-up query: %v", err)
				}
				dst = out
			}
			allocs := testing.AllocsPerRun(50, func() {
				out, _, _, _, _, err := srv.sessions.queryInto(ctx, sess.id, dst, q, ov, time.Time{})
				if err != nil {
					t.Fatalf("query: %v", err)
				}
				dst = out
			})
			if allocs != 0 {
				t.Errorf("steady-state decode cycle allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}
