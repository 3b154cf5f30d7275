package serve_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"elsa"
	"elsa/internal/serve/servetest"
	"elsa/serve/client"
)

// remoteOp is one exact attend op of 4 queries over 160 to 256 keys at
// d = 64, large enough that the frontend and the workers decode it into
// pooled buffers, with its output from a local engine of the same
// options.
type remoteOp struct {
	q, k, v [][]float32
	want    [][]float32
}

func remoteOps(t *testing.T, rng *rand.Rand, n int) []remoteOp {
	eng, err := elsa.New(elsa.Options{HeadDim: 64})
	if err != nil {
		t.Fatal(err)
	}
	gen := func(rows int) [][]float32 {
		m := make([][]float32, rows)
		for i := range m {
			m[i] = make([]float32, 64)
			for j := range m[i] {
				m[i][j] = float32(rng.NormFloat64())
			}
		}
		return m
	}
	ops := make([]remoteOp, n)
	for i := range ops {
		keys := 160 + 32*rng.Intn(4)
		o := remoteOp{q: gen(4), k: gen(keys), v: gen(keys)}
		out, err := eng.Attend(o.q, o.k, o.v, elsa.Exact())
		if err != nil {
			t.Fatal(err)
		}
		o.want = out.Context
		ops[i] = o
	}
	return ops
}

// attend sends the op through c under ctx.
func (o remoteOp) attend(ctx context.Context, c *client.Client) (*client.Result, error) {
	return c.Attend(ctx, o.q, o.k, o.v, client.AttendOptions{HeadDim: 64})
}

// check sends the op and reports an error unless it answers the local
// engine's output bit for bit. It may run on any goroutine.
func (o remoteOp) check(t *testing.T, c *client.Client) {
	res, err := o.attend(context.Background(), c)
	if err != nil {
		t.Errorf("attend: %v", err)
		return
	}
	if !sameContext(res, &client.Result{Context: o.want}) {
		t.Error("attend through the frontend differs from the local engine")
	}
}

// checkAll sends ops concurrently and checks each bit for bit.
func checkAll(t *testing.T, c *client.Client, ops []remoteOp) {
	var wg sync.WaitGroup
	for _, o := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.check(t, c)
		}()
	}
	wg.Wait()
}

// TestCancelledAttendRemote: ops whose 100 ms deadline expires while
// they wait for or run on a remote lane, directly or after a reroute off
// a failing worker, leave their buffers to the GC, at the frontend and
// in the client. The live ops beside them, and fresh ops after them,
// answer bit for bit.
// TestMain poisons every released buffer, so under -race a lane that
// read a released op's rows would race with its next owner.
func TestCancelledAttendRemote(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workers  int
		maxBatch int
		setup    func(cl *servetest.Cluster)
		undo     func(cl *servetest.Cluster)
	}{
		// One worker, one op on the wire at a time, each held 300 ms:
		// the expiring ops wait for the slot or hold it.
		{"held", 1, 0,
			func(cl *servetest.Cluster) { cl.Workers[0].SetLatency(300 * time.Millisecond) },
			func(cl *servetest.Cluster) { cl.Workers[0].SetLatency(0) }},
		// Worker 0 fails its first ops with a 500, so they reroute to
		// worker 1, which holds each 300 ms. One op per batch: four ops
		// queued before the first kick would otherwise ride one batch
		// onto whichever lane the rotation starts from, and on worker 1's
		// lane none would meet worker 0. Singly, the first kick hands
		// each idle lane an op, so worker 0 always sees one.
		{"reroute", 2, 1,
			func(cl *servetest.Cluster) {
				cl.Workers[0].InjectErrors(2)
				cl.Workers[1].SetLatency(300 * time.Millisecond)
			},
			func(cl *servetest.Cluster) { cl.Workers[1].SetLatency(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			front, workerCfg := fastCluster()
			front.WorkerInFlight = 1
			front.MaxBatch = tc.maxBatch
			cl := servetest.NewCluster(tc.workers, front, workerCfg)
			defer cl.Close()
			c := client.New(cl.URL())
			rng := rand.New(rand.NewSource(int64(tc.workers)))

			tc.setup(cl)
			ops := remoteOps(t, rng, 4)
			var wg sync.WaitGroup
			for i, o := range ops {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if i%2 == 1 {
						o.check(t, c)
						return
					}
					// It may still make its deadline on a free lane; an
					// answer must then be right.
					ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
					defer cancel()
					if res, err := o.attend(ctx, c); err == nil && !sameContext(res, &client.Result{Context: o.want}) {
						t.Errorf("op %d answered wrong within its deadline", i)
					}
				}()
			}
			wg.Wait()
			if tc.workers > 1 && metricTotal(cl.Frontend.Metrics(), "elsa_serve_reroutes_total") == 0 {
				t.Error("no op rerouted off the failing worker")
			}
			tc.undo(cl)
			checkAll(t, c, remoteOps(t, rng, 6))
		})
	}
}
