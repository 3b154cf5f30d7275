package serve_test

// Golden corpus of the v1 wire schema: every request body serve/client
// writes and every reply body the server writes, byte for byte, in
// testdata/wire. The bodies are recorded off the HTTP exchanges of real
// client calls against real servers, so a change to either side's
// encoding (a field's order, tag or omitempty) shows here as a diff.
// Session IDs, worker addresses and heartbeat ages vary per run and are
// replaced by fixed text before comparing. Rerun with -update-wire to
// accept an intended change.

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/internal/serve/servetest"
	"elsa/serve/client"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire from the recorded exchanges")

// heartbeatAge matches a member's heartbeat age, which reads however many
// milliseconds passed since the frontend's last probe.
var heartbeatAge = regexp.MustCompile(`"heartbeat_age_ms":[0-9]+`)

// exchange is one recorded HTTP round trip.
type exchange struct {
	path         string
	request, rep []byte
}

// tap serves h and records every exchange through it.
type tap struct {
	h  http.Handler
	mu sync.Mutex
	ex []exchange
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes()) //nolint:errcheck // test transport
	t.mu.Lock()
	t.ex = append(t.ex, exchange{r.URL.Path, body, rec.Body.Bytes()})
	t.mu.Unlock()
}

// last returns the most recent exchange whose path ends in suffix.
func (t *tap) last(tb testing.TB, suffix string) exchange {
	tb.Helper()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.ex) - 1; i >= 0; i-- {
		if strings.HasSuffix(t.ex[i].path, suffix) {
			return t.ex[i]
		}
	}
	tb.Fatalf("no exchange recorded on *%s", suffix)
	return exchange{}
}

// tapped serves h on a fresh listener through a tap.
func tapped(t *testing.T, h http.Handler) (*tap, string) {
	tp := &tap{h: h}
	ts := httptest.NewServer(tp)
	t.Cleanup(ts.Close)
	return tp, ts.URL
}

// goldenMatrix is a deterministic rows×8 matrix.
func goldenMatrix(rows, salt int) [][]float32 {
	m := make([][]float32, rows)
	for i := range m {
		m[i] = make([]float32, 8)
		for j := range m[i] {
			m[i][j] = float32((i*7+j*3+salt)%11)/4 - 1.25
		}
	}
	return m
}

func TestWireGolden(t *testing.T) {
	ctx := context.Background()
	got := map[string][]byte{}
	record := func(name string, ex exchange, request bool) {
		if request {
			got[name+".request.json"] = ex.request
		}
		got[name+".reply.json"] = ex.rep
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var names []string // real → fixed replacements, applied in order
	rename := func(real, fixed string) { names = append(names, real, fixed) }

	// A standalone server: attend, sessions, export, drain.
	a := serve.New(serve.Config{Replicas: 1})
	t.Cleanup(a.Close)
	tapA, urlA := tapped(t, a)
	cli := client.New(urlA, client.WithClientID("golden"), client.WithPriority("batch"))

	_, err := cli.Health(ctx)
	must(err)
	record("healthz-standalone", tapA.last(t, "/healthz"), false)

	q, k, v := goldenMatrix(2, 0), goldenMatrix(6, 1), goldenMatrix(6, 2)
	_, err = cli.Attend(ctx, q, k, v, client.AttendOptions{Overrides: elsa.Overrides{P: 0.5}, HeadDim: 8})
	must(err)
	record("attend-packed", tapA.last(t, "/attend"), true)

	plain := `{"client_id":"golden","op":{"q":[[1,0,0,0]],"k":[[1,0,0,0],[0,1,0,0]],"v":[[1,2,3,4],[5,6,7,8]],"p":0}}`
	resp, err := http.Post(urlA+"/v1/attend", "application/json", strings.NewReader(plain))
	must(err)
	resp.Body.Close()
	record("attend-plain", tapA.last(t, "/attend"), false)

	resp, err = http.Post(urlA+"/v1/attend", "application/json", strings.NewReader(`{"q":[[1]]}`))
	must(err)
	resp.Body.Close()
	record("error", tapA.last(t, "/attend"), false)

	s1, err := cli.NewSession(ctx, client.SessionOptions{
		Overrides: elsa.Overrides{Thr: &elsa.Threshold{P: 0.5, T: 0.125}}, HeadDim: 8, Capacity: 16,
	})
	must(err)
	record("create-threshold", tapA.last(t, "/sessions"), true)
	rename(s1.ID(), "session-1")

	s2, err := cli.NewSession(ctx, client.SessionOptions{Overrides: elsa.Overrides{P: 0.5}, HeadDim: 8, Seed: 3})
	must(err)
	record("create-lazy", tapA.last(t, "/sessions"), true)
	rename(s2.ID(), "session-2")

	_, err = s1.AppendBatch(ctx, k, v)
	must(err)
	record("append", tapA.last(t, "/append"), true)

	_, err = s1.Query(ctx, q[0], elsa.Overrides{})
	must(err)
	record("query", tapA.last(t, "/query"), true)

	s3, err := cli.NewSession(ctx, client.SessionOptions{HeadDim: 8})
	must(err)
	rename(s3.ID(), "session-3")
	must(s3.Close(ctx))
	res, err := cli.Step(ctx, []client.StepQuery{
		{Session: s1, Q: q[1], Thr: &elsa.Threshold{T: 0.25}},
		{Session: s3, Q: q[0]},
	})
	must(err)
	if res[0].Err != nil || res[1].Err == nil {
		t.Fatalf("step wave: want the first entry served and the second refused, got %v / %v", res[0].Err, res[1].Err)
	}
	record("step", tapA.last(t, "/step"), true)

	st, err := s1.Export(ctx)
	must(err)
	record("export", tapA.last(t, "/export"), true)

	b := serve.New(serve.Config{Replicas: 1})
	t.Cleanup(b.Close)
	tapB, urlB := tapped(t, b)
	cliB := client.New(urlB, client.WithClientID("golden"), client.WithPriority("batch"))
	_, err = cliB.ImportSession(ctx, st)
	must(err)
	record("import", tapB.last(t, "/import"), true)

	_, err = cli.Drain(ctx)
	must(err)
	record("drain", tapA.last(t, "/drain"), true)

	// A frontend over one static worker: the fleet healthz, the cluster
	// view, rebalance and a member drain.
	front := serve.Config{WorkerProbeInterval: 10 * time.Millisecond, RequestTimeout: 10 * time.Second}
	cl := servetest.NewCluster(1, front, serve.Config{Replicas: 1})
	t.Cleanup(cl.Close)
	worker := cl.Workers[0].URL()
	rename(worker, "http://worker-1")
	must(cl.WaitState(worker, "active", 10*time.Second))
	tapF, urlF := tapped(t, cl.Frontend)
	cliF := client.New(urlF)
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := cliF.Health(ctx)
		must(err)
		if h.HealthyWorkers == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the static worker never turned healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	record("healthz-frontend", tapF.last(t, "/healthz"), false)

	_, err = cliF.Cluster(ctx)
	must(err)
	record("cluster", tapF.last(t, "/cluster"), false)

	_, err = cliF.RebalanceMember(ctx, worker, 3)
	must(err)
	record("rebalance", tapF.last(t, "/rebalance"), true)

	_, err = cliF.DrainMember(ctx, worker)
	must(err)
	record("cluster-drain", tapF.last(t, "/cluster/drain"), true)

	// A frontend with no static workers: a join.
	dyn := servetest.NewDynamicCluster(front)
	t.Cleanup(dyn.Close)
	joiner := servetest.NewWorker(serve.Config{Replicas: 1})
	t.Cleanup(joiner.Close)
	rename(joiner.URL(), "http://worker-2")
	tapD, urlD := tapped(t, dyn.Frontend)
	_, err = client.New(urlD).Join(ctx, client.JoinRequest{
		Addr: joiner.URL(), Weight: 2, MaxSessions: 8, HeartbeatInterval: time.Minute, Incarnation: 7,
	})
	must(err)
	record("join", tapD.last(t, "/join"), true)

	for name, body := range got {
		for i := 0; i < len(names); i += 2 {
			body = bytes.ReplaceAll(body, []byte(names[i]), []byte(names[i+1]))
		}
		got[name] = heartbeatAge.ReplaceAll(body, []byte(`"heartbeat_age_ms":0`))
	}

	dir := filepath.Join("testdata", "wire")
	if *updateWire {
		must(os.RemoveAll(dir))
		must(os.MkdirAll(dir, 0o755))
		for name, body := range got {
			must(os.WriteFile(filepath.Join(dir, name), body, 0o644))
		}
	}
	entries, err := os.ReadDir(dir)
	must(err)
	var stale []string
	for _, e := range entries {
		if _, ok := got[e.Name()]; !ok {
			stale = append(stale, e.Name())
		}
	}
	if len(stale) > 0 {
		t.Errorf("testdata/wire holds bodies this test no longer records: %v", stale)
	}
	keys := make([]string, 0, len(got))
	for name := range got {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	for _, name := range keys {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: no golden body (rerun with -update-wire)", name)
			continue
		}
		must(err)
		if !bytes.Equal(got[name], want) {
			t.Errorf("%s changed:\n got  %s\n want %s", name, got[name], want)
		}
	}
}
