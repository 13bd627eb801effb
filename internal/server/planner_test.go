package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
)

// Server-side contract of the batch planner: /v1/batch plans its
// distribution entries as one unit against one model snapshot, with
// answers byte-identical to the unplanned per-entry path, the
// per-entry status contract intact, and the planner's accumulated
// effectiveness reported by /v1/stats.

func TestBatchPlannedMatchesUnplanned(t *testing.T) {
	// A planner-less system; no query cache: the unplanned pass would
	// fill it and the planned pass would be answered before planning.
	sys := freshSystem(t)
	sys.EnableConvMemo(4096)
	srv := New(sys, Config{Limits: api.Limits{MaxInFlight: 4}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	path, depart := densePath(t, sys)
	src, dst, budget := routePair(t, sys)
	// The invalid entry repeats the trunk's first edge: it shares
	// every prefix with the valid entries but is not a simple path,
	// so it must fail alone with a per-entry 400.
	bad := append(append([]int64{}, path...), path[0])
	req := batchRequest{Queries: []batchQuery{
		{Kind: "distribution", Path: path, Depart: depart, Budget: 3600},
		{Kind: "distribution", Path: path[:len(path)-1], Depart: depart},
		{Kind: "distribution", Path: path[:2], Depart: depart},
		{Kind: "distribution", Path: path, Depart: depart, Budget: 3600}, // duplicate
		{Kind: "distribution", Path: bad, Depart: depart},
		{Kind: "route", Source: src, Dest: dst, Depart: depart, Budget: budget},
	}}

	var unplanned batchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", req, &unplanned); code != http.StatusOK {
		t.Fatalf("unplanned batch = %d", code)
	}

	sys.EnableBatchPlanner(4)
	var planned batchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", req, &planned); code != http.StatusOK {
		t.Fatalf("planned batch = %d", code)
	}

	for i := range req.Queries {
		u, p := unplanned.Results[i], planned.Results[i]
		if u.Status != p.Status {
			t.Fatalf("entry %d: planned status %d, unplanned %d", i, p.Status, u.Status)
		}
		if u.Distribution == nil != (p.Distribution == nil) {
			t.Fatalf("entry %d: planned/unplanned distribution presence differs", i)
		}
		if u.Distribution == nil {
			continue
		}
		if u.Distribution.MeanS != p.Distribution.MeanS ||
			u.Distribution.P50S != p.Distribution.P50S ||
			len(u.Distribution.Buckets) != len(p.Distribution.Buckets) {
			t.Fatalf("entry %d: planned answer differs from unplanned: %+v vs %+v",
				i, p.Distribution, u.Distribution)
		}
		for j := range u.Distribution.Buckets {
			if u.Distribution.Buckets[j] != p.Distribution.Buckets[j] {
				t.Fatalf("entry %d bucket %d differs under planning", i, j)
			}
		}
		if u.Distribution.ProbWithin != nil &&
			(p.Distribution.ProbWithin == nil || *u.Distribution.ProbWithin != *p.Distribution.ProbWithin) {
			t.Fatalf("entry %d: prob_within differs under planning", i)
		}
	}
	r := planned.Results
	if r[4].Status != http.StatusBadRequest || r[4].Error == "" {
		t.Fatalf("invalid-path entry should be a per-entry 400: %+v", r[4])
	}
	if r[5].Status != http.StatusOK || r[5].Route == nil {
		t.Fatalf("route entry must bypass the planner and still answer: %+v", r[5])
	}
}

func TestStatsReportsPlanner(t *testing.T) {
	sys := freshSystem(t) // planner-less
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var off statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &off); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if off.Planner != nil {
		t.Fatalf("planner block present with the planner disabled: %+v", off.Planner)
	}

	sys.EnableBatchPlanner(3)
	// A fresh (empty) query cache: earlier tests may have cached these
	// exact queries, and cache hits are answered before planning.
	sys.EnableQueryCache(256)
	path, depart := densePath(t, sys)
	req := batchRequest{Queries: []batchQuery{
		{Kind: "distribution", Path: path, Depart: depart},
		{Kind: "distribution", Path: path[:len(path)-1], Depart: depart},
		{Kind: "distribution", Path: path[:2], Depart: depart},
	}}
	var resp batchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", req, &resp); code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	for i, r := range resp.Results {
		if r.Status != http.StatusOK {
			t.Fatalf("entry %d: status %d (%s)", i, r.Status, r.Error)
		}
	}

	var on statsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &on); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	p := on.Planner
	if p == nil {
		t.Fatal("no planner block with the planner enabled")
	}
	if p.Workers != 3 || p.Batches != 1 || p.Queries != 3 || p.Planned != 3 {
		t.Fatalf("planner counters wrong: %+v", p)
	}
	// The three queries are prefixes of one trunk: the trie holds
	// len(path) nodes, each answered exactly once.
	if p.Nodes != len(path) || p.Convolutions+p.ProbeHits != p.Nodes {
		t.Fatalf("planner accounting broken for a %d-edge trunk: %+v", len(path), p)
	}
	if p.SharedNodes == 0 || p.SavedSteps == 0 {
		t.Fatalf("prefix sharing not detected: %+v", p)
	}
	if p.IndependentSteps != p.Convolutions+p.ProbeHits+p.SavedSteps {
		t.Fatalf("saved_steps does not reconcile: %+v", p)
	}
}
