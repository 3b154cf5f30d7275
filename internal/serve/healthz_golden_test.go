package serve_test

// Golden test for the standalone /v1/healthz body: external monitors
// parse this reply, so growing the cluster fields must not perturb a
// single byte of it. The fleet fields (role, workers, members, ...)
// appear only on servers that actually have a fleet.

import (
	"io"
	"net/http"
	"testing"

	"elsa/internal/serve"
	"elsa/internal/serve/servetest"
)

const standaloneHealthzGolden = "{\"status\":\"ok\",\"engines\":0,\"sessions\":0}\n"

func TestStandaloneHealthzBodyGolden(t *testing.T) {
	w := servetest.NewWorker(serve.Config{Replicas: 1})
	defer w.Close()

	resp, err := http.Get(w.URL() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	if string(body) != standaloneHealthzGolden {
		t.Fatalf("standalone healthz body changed:\n got  %q\n want %q", body, standaloneHealthzGolden)
	}
}
