package serve

import (
	"os"
	"testing"

	"elsa/internal/wire"
)

// TestMain poisons every buffer released to the wire pools, so a body
// or a row read after its release shows up as a refused request or a
// wrong answer.
func TestMain(m *testing.M) {
	wire.PoisonReleased = true
	os.Exit(m.Run())
}
