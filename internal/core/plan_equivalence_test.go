package core

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/hist"
)

// This file is the planner equivalence harness: on arbitrary random
// workloads, a batch answered through the BatchPlanner must be
// byte-identical to answering every query independently — across
// plain, memoized, synopsis-backed and combined configurations, for
// every method (including RD's fallback path), on cold and warm
// stores, with duplicate entries mixed in. Run under -race it also
// proves the trie scheduler publishes shared states safely.

func TestPlannerEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, data, params := randomWorkload(seed)
		h, err := Build(g, data, params)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		paths, departs := oracleQueries(g, seed)
		var queries []PlanQuery
		for _, m := range []Method{MethodOD, MethodHP, MethodLB, MethodRD} {
			for _, dep := range departs {
				for _, p := range paths {
					queries = append(queries, PlanQuery{
						Path: p, Depart: dep, Opt: QueryOptions{Method: m, Seed: seed},
					})
				}
			}
		}
		// Duplicates share one trie end node and must both answer.
		queries = append(queries, queries[0], queries[len(queries)/2])

		// Reference: every query evaluated independently, storeless.
		ref := make([]*hist.Histogram, len(queries))
		for i, q := range queries {
			res, err := h.CostDistribution(q.Path, q.Depart, q.Opt)
			if err != nil {
				t.Logf("seed %d query %d: independent: %v", seed, i, err)
				return false
			}
			ref[i] = res.Dist
		}

		var workload []WorkloadQuery
		for _, dep := range departs {
			for _, p := range paths {
				workload = append(workload, WorkloadQuery{Path: p, Depart: dep})
			}
		}
		syn, err := h.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 64, MinDepth: 2})
		if err != nil {
			t.Logf("seed %d: synopsis: %v", seed, err)
			return false
		}

		bp := NewBatchPlanner(4)
		for _, cfg := range []struct {
			name string
			syn  *SynopsisStore
			memo *ConvMemo
		}{
			{"plain", nil, nil},
			{"memo", nil, NewConvMemo(1 << 10)},
			{"synopsis", syn, nil},
			{"both", syn, NewConvMemo(1 << 10)},
		} {
			for pass := 0; pass < 2; pass++ { // cold, then warm stores
				out, stats := bp.Distributions(context.Background(), &Evaluator{H: h, Syn: cfg.syn, Memo: cfg.memo}, queries)
				if len(out) != len(queries) {
					return false
				}
				for i := range out {
					if out[i].Err != nil {
						t.Logf("seed %d %s pass %d query %d: %v", seed, cfg.name, pass, i, out[i].Err)
						return false
					}
					if !identicalHist(ref[i], out[i].Res.Dist) {
						t.Logf("seed %d %s pass %d query %d: planned diverged from independent",
							seed, cfg.name, pass, i)
						return false
					}
				}
				// Every trie node is answered exactly once, by a probe or
				// by one chain step — never both, never twice.
				if stats.Convolutions+stats.ProbeHits != stats.Nodes {
					t.Logf("seed %d %s pass %d: Convolutions %d + ProbeHits %d != Nodes %d",
						seed, cfg.name, pass, stats.Convolutions, stats.ProbeHits, stats.Nodes)
					return false
				}
				if stats.Planned+stats.Fallback != stats.Queries {
					return false
				}
				// The batch is prefix-heavy by construction: sharing must
				// be found and steps must be saved.
				if stats.SharedNodes == 0 || stats.IndependentSteps <= stats.Nodes {
					t.Logf("seed %d %s: no sharing found: %+v", seed, cfg.name, stats)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// The planner must agree with the naive Equation 2 oracle too — not
// just with the optimized independent path it is built from.
func TestPlannerMatchesNaiveOracle(t *testing.T) {
	g, data, params := randomWorkload(17)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	paths, departs := oracleQueries(g, 17)
	var queries []PlanQuery
	for _, p := range paths {
		queries = append(queries, PlanQuery{Path: p, Depart: departs[0]})
	}
	out, _ := NewBatchPlanner(4).Distributions(context.Background(), &Evaluator{H: h}, queries)
	for i, q := range queries {
		want, err := naiveDistribution(h, q.Path, q.Depart, q.Opt)
		if err != nil {
			t.Fatal(err)
		}
		if out[i].Err != nil {
			t.Fatal(out[i].Err)
		}
		if !identicalHist(want, out[i].Res.Dist) {
			t.Fatalf("query %d (%v): planned result diverged from the naive oracle", i, q.Path)
		}
	}
}
