package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"elsa/internal/wire"
)

// TestConcurrentJoinRepliesCarryDistinctVersions joins many members at
// once to a closed frontend, where no probe runs, so each join's upsert
// is the only table change it makes: each reply must carry the version
// its own upsert wrote, and those are 1..n, once each, whatever other
// joins land between a handler's upsert and its reply.
func TestConcurrentJoinRepliesCarryDistinctVersions(t *testing.T) {
	srv := New(Config{})
	srv.Close()
	const n = 64
	versions := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"op":{"addr":"127.0.0.1:%d"}}`, 1+i)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/join", strings.NewReader(body)))
			var reply wire.JoinResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || rec.Code != http.StatusOK {
				t.Errorf("join %d: %d %v: %s", i, rec.Code, err, rec.Body)
			}
			versions[i] = reply.Version
		}(i)
	}
	wg.Wait()
	slices.Sort(versions)
	for i, v := range versions {
		if v != uint64(i+1) {
			t.Fatalf("%d concurrent joins replied versions %v, want 1..%d once each", n, versions, n)
		}
	}
}
