package serve

import (
	"testing"
	"time"
)

// TestShedRatesWindowed pins the windowed shed-rate signal GET
// /v1/cluster surfaces: rates cover the last completed window only (not
// lifetime averages), the first read seeds and reports zeros, reads
// inside a window return the previous window's rates, and an idle
// window decays the rate back to zero.
func TestShedRatesWindowed(t *testing.T) {
	m := NewMetrics()
	now := time.Unix(100, 0)
	m.clock = func() time.Time { return now }

	// First read seeds the window: all zeros regardless of prior sheds.
	m.shedBy[ClassInteractive].add(1)
	for class, r := range m.ShedRates() {
		if r != 0 {
			t.Fatalf("seed read: rate[%s] = %v, want 0", class, r)
		}
	}

	// Four sheds over a 2s window → 2 events/s for that class alone.
	for i := 0; i < 4; i++ {
		m.shedBy[ClassInteractive].add(1)
	}
	m.shedBy[ClassBatch].add(1)
	now = now.Add(2 * time.Second)
	rates := m.ShedRates()
	if got := rates[ClassInteractive.String()]; got != 2 {
		t.Fatalf("interactive rate = %v, want 2/s", got)
	}
	if got := rates[ClassBatch.String()]; got != 0.5 {
		t.Fatalf("batch rate = %v, want 0.5/s", got)
	}

	// A read before the window elapses returns the same completed window,
	// even as new sheds accumulate.
	m.shedBy[ClassInteractive].add(1)
	now = now.Add(m.shedWindow / 2)
	if got := m.ShedRates()[ClassInteractive.String()]; got != 2 {
		t.Fatalf("mid-window rate = %v, want previous window's 2/s", got)
	}

	// Once a full idle window passes, the rate decays to current pressure.
	now = now.Add(5 * time.Second)
	if got := m.ShedRates()[ClassInteractive.String()]; got >= 0.2 {
		t.Fatalf("post-idle rate = %v, want near zero", got)
	}
	now = now.Add(2 * time.Second)
	if got := m.ShedRates()[ClassInteractive.String()]; got != 0 {
		t.Fatalf("fully idle rate = %v, want 0", got)
	}
}
