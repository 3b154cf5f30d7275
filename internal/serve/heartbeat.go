package serve

import (
	"context"
	"log"
	"math/rand"
	"sync"
	"time"

	"elsa/serve/client"
)

// Heartbeater keeps one worker registered with a frontend: an immediate
// join on Start (so the worker takes traffic without waiting a full
// interval), then re-joins on a jittered cadence as the liveness
// heartbeat. Each beat carries the worker's current capacity hints and
// drain state, so a worker drained directly (bypassing the frontend)
// propagates within one beat, and the heartbeater's incarnation, so a
// frontend tells a restarted worker from a beat that crossed a drain.
// Beats are best-effort: a down frontend is retried next tick, and the
// frontend's heartbeat-age sweep is what eventually expires us if we
// stop beating.
type Heartbeater struct {
	cli       *client.Client
	frontend  string
	advertise string
	interval  time.Duration
	weight    int
	srv       *Server
	// incarnation is drawn once per heartbeater, that is per worker
	// process; never 0, which names none.
	incarnation uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewHeartbeater builds a heartbeater that registers srv with the
// frontend at frontendURL as advertise (the address the frontend dials
// back). interval is the heartbeat cadence the worker promises; weight
// scales its share of session keyspace (values < 1 count as 1).
func NewHeartbeater(frontendURL, advertise string, interval time.Duration, weight int, srv *Server) *Heartbeater {
	return &Heartbeater{
		cli:         client.New(frontendURL),
		frontend:    frontendURL,
		advertise:   advertise,
		interval:    interval,
		weight:      weight,
		srv:         srv,
		incarnation: rand.Uint64() | 1,
		stop:        make(chan struct{}),
	}
}

// Start begins heartbeating: one beat immediately, then every jittered
// interval until Stop.
func (h *Heartbeater) Start() {
	h.wg.Add(1)
	go h.loop()
}

// Stop ends the heartbeat loop and waits for any in-flight beat. It
// does not deregister — the frontend's sweep retires the member after
// ~3 missed intervals, and a drain should precede a planned stop.
func (h *Heartbeater) Stop() {
	close(h.stop)
	h.wg.Wait()
}

func (h *Heartbeater) loop() {
	defer h.wg.Done()
	h.beat()
	t := time.NewTimer(jitter(h.interval))
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			h.beat()
			t.Reset(jitter(h.interval))
		}
	}
}

// beat sends one join/heartbeat. The timeout floors at 1s so very short
// heartbeat intervals don't starve the request itself.
func (h *Heartbeater) beat() {
	timeout := h.interval
	if timeout < time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	_, err := h.cli.Join(ctx, client.JoinRequest{
		Addr:              h.advertise,
		Weight:            h.weight,
		MaxSessions:       h.srv.cfg.MaxSessions,
		HeartbeatInterval: h.interval,
		Draining:          h.srv.Draining(),
		Incarnation:       h.incarnation,
	})
	if err != nil {
		log.Printf("serve: heartbeat to %s failed: %v", h.frontend, err)
	}
}
