package elsa

import (
	"math"
	"math/rand"
	"testing"
)

func TestPublicStreamMatchesAttend(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	e := newEngine(t, Options{Seed: 30})
	q, k, v := genData(rng, 8, 24, 64)
	st := e.NewStream(24)
	for i := range k {
		if err := st.Append(k[i], v[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 24 {
		t.Fatalf("Len = %d", st.Len())
	}
	batch, err := e.Attend(q, k, v, Exact())
	if err != nil {
		t.Fatal(err)
	}
	for i := range q {
		out, stats, err := st.Query(q[i], Exact())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Candidates != 24 || stats.Fallback {
			t.Errorf("query %d: stats %+v", i, stats)
		}
		for j := range out {
			if math.Abs(float64(out[j]-batch.Context[i][j])) > 1e-6 {
				t.Fatalf("query %d: stream output diverges at %d", i, j)
			}
		}
	}
}

func TestPublicStreamErrors(t *testing.T) {
	e := newEngine(t, Options{Seed: 31})
	st := e.NewStream(4)
	if err := st.Append(make([]float32, 3), make([]float32, 64)); err == nil {
		t.Error("bad key dim should error")
	}
	if _, _, err := st.Query(make([]float32, 64), Exact()); err == nil {
		t.Error("empty stream query should error")
	}
}

func TestPublicBlockwiseMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	e := newEngine(t, Options{Seed: 32})
	q, k, v := genData(rng, 8, 40, 64)
	out, err := e.AttendBlockwise(q, k, v, 16, Exact())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := e.ExactAttention(q, k, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		for j := range exact[i] {
			if math.Abs(float64(exact[i][j]-out.Context[i][j])) > 1e-4 {
				t.Fatalf("blockwise diverges from exact at %d,%d", i, j)
			}
		}
	}
	if out.CandidateFraction != 1 {
		t.Errorf("exact threshold fraction = %g", out.CandidateFraction)
	}
}

func TestPublicBlockwiseErrors(t *testing.T) {
	e := newEngine(t, Options{Seed: 33})
	rng := rand.New(rand.NewSource(33))
	q, k, v := genData(rng, 4, 16, 64)
	if _, err := e.AttendBlockwise(q, k, v, 0, Exact()); err == nil {
		t.Error("zero block size should error")
	}
	if _, err := e.AttendBlockwise(nil, k, v, 8, Exact()); err == nil {
		t.Error("nil queries should error")
	}
	q[1][5] = float32(math.NaN())
	if _, err := e.AttendBlockwise(q, k, v, 8, Threshold{T: 0.1}); err == nil {
		t.Error("a NaN query should error")
	}
}

func TestPublicStreamQueryWithAndKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	e := newEngine(t, Options{Seed: 33})
	_, k, v := genData(rng, 1, 12, 64)
	st := e.NewStream(12)
	for i := range k {
		if err := st.Append(k[i], v[i]); err != nil {
			t.Fatal(err)
		}
	}
	keys := st.Keys()
	if len(keys) != 12 {
		t.Fatalf("Keys returned %d rows", len(keys))
	}
	for i := range keys {
		for j := range keys[i] {
			if keys[i][j] != k[i][j] {
				t.Fatalf("Keys row %d differs at %d", i, j)
			}
		}
	}
	// Keys must be copies: mutating them must not corrupt the stream.
	keys[0][0] += 100

	q, _, _ := genData(rng, 1, 1, 64)
	want, _, err := st.Query(q[0], Exact())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, 0, 64)
	got, stats, err := st.QueryWith(dst, q[0], Exact())
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("QueryWith did not reuse the caller's buffer")
	}
	if stats.Candidates != 12 {
		t.Errorf("stats %+v", stats)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("QueryWith diverges from Query at %d", j)
		}
	}
}
