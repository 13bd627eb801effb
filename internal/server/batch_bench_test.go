package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
)

// BenchmarkBatchDistribution measures a prefix-heavy /v1/batch
// workload with the convolution memo off vs on — the end-to-end
// speedup the memo buys the serving path. The query cache stays off
// so the comparison isolates the memo.
func BenchmarkBatchDistribution(b *testing.B) {
	sys := testSystem(b)
	sys.EnableQueryCache(0)
	srv := New(sys, Config{Limits: api.Limits{MaxInFlight: 8}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Long random paths and all their even prefixes, one batch.
	rnd := rand.New(rand.NewSource(23))
	var queries []batchQuery
	for i := 0; i < 3; i++ {
		p, err := sys.RandomQueryPath(10, rnd.Intn)
		if err != nil {
			b.Fatal(err)
		}
		for n := 2; n <= len(p); n += 2 {
			ids := make([]int64, n)
			for j, e := range p[:n] {
				ids[j] = int64(e)
			}
			queries = append(queries, batchQuery{Kind: "distribution", Path: ids, Depart: 8 * 3600})
		}
	}
	body, err := json.Marshal(batchRequest{Queries: queries})
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var out batchResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
			for _, r := range out.Results {
				if r.Status != http.StatusOK {
					b.Fatalf("entry status %d: %s", r.Status, r.Error)
				}
			}
		}
	}
	b.Run("memo-off", func(b *testing.B) { sys.EnableConvMemo(0); run(b) })
	b.Run("memo-on", func(b *testing.B) { sys.EnableConvMemo(1 << 16); run(b) })
}
