package pathcost

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/hist"
)

// System-level contract of PlanDistributions: how the batch planner
// composes with the query cache, the admission gate, per-entry
// failures and the accumulated PlannerStats. The trie and scheduler
// themselves are proven in internal/core.

var (
	planSysOnce sync.Once
	planSysInst *System
	planSysErr  error
)

// plannerTestSystem trains a private system so these tests can toggle
// the cache and planner without leaking state into the shared fixture.
func plannerTestSystem(t testing.TB) *System {
	t.Helper()
	planSysOnce.Do(func() {
		params := DefaultParams()
		params.Beta = 20
		params.MaxRank = 4
		planSysInst, planSysErr = Synthesize(SynthesizeConfig{
			Preset: "test", Trips: 3000, Seed: 21, Params: params,
		})
	})
	if planSysErr != nil {
		t.Fatal(planSysErr)
	}
	return planSysInst
}

// planCopy reloads the planner test model into a private System, so a
// test can enable layers without leaking them into the shared one.
func planCopy(t testing.TB) *System {
	t.Helper()
	base := plannerTestSystem(t)
	var model bytes.Buffer
	if err := base.SaveModel(&model); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSystem(base.Graph, base.Data(), &model)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// plannerBatchQueries builds a prefix-heavy batch over one dense path.
func plannerBatchQueries(t testing.TB, s *System) []PlanQuery {
	t.Helper()
	dense := s.DensePaths(4, 10)
	if len(dense) == 0 {
		dense = s.DensePaths(3, 10)
	}
	if len(dense) == 0 {
		t.Skip("no dense paths in this workload")
	}
	trunk := dense[0].Path
	lo, _ := s.Params.IntervalBounds(dense[0].Interval)
	depart := lo + 1
	var queries []PlanQuery
	for n := 2; n <= len(trunk); n++ {
		queries = append(queries, PlanQuery{Path: trunk[:n], Depart: depart})
	}
	queries = append(queries, queries[len(queries)-1]) // duplicate entry
	return queries
}

func identicalPlanHist(a, b *hist.Histogram) bool {
	if a.NumBuckets() != b.NumBuckets() {
		return false
	}
	ab, bb := a.Buckets(), b.Buckets()
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}

func TestPlanDistributionsCacheInterplay(t *testing.T) {
	s := planCopy(t)
	queries := plannerBatchQueries(t, s)

	// Storeless reference, computed before any cache exists.
	ref := make([]*hist.Histogram, len(queries))
	for i, q := range queries {
		res, err := s.CurrentEpoch().Hybrid.CostDistribution(q.Path, q.Depart, q.Opt)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = res.Dist
	}

	s.EnableQueryCache(256)
	s.EnableBatchPlanner(4)

	out, stats := s.PlanDistributions(context.Background(), queries, nil, nil)
	for i := range out {
		if out[i].Err != nil {
			t.Fatalf("entry %d: %v", i, out[i].Err)
		}
		if !identicalPlanHist(ref[i], out[i].Res.Dist) {
			t.Fatalf("entry %d: planned result diverged from independent evaluation", i)
		}
	}
	if stats.Nodes == 0 || stats.Convolutions == 0 {
		t.Fatalf("cold batch planned nothing: %+v", stats)
	}

	// Second pass: every entry is a query-cache hit, so nothing is
	// planned and the gate must never be consulted.
	out2, stats2 := s.PlanDistributions(context.Background(), queries,
		func() bool { t.Error("acquire called for a fully cached batch"); return true }, nil)
	if stats2.Nodes != 0 || stats2.Convolutions != 0 {
		t.Fatalf("warm batch re-planned cached entries: %+v", stats2)
	}
	for i := range out2 {
		if out2[i].Err != nil || !identicalPlanHist(ref[i], out2[i].Res.Dist) {
			t.Fatalf("entry %d: cached answer diverged", i)
		}
	}

	// The planned results also serve later single queries.
	cs := s.Stats().Cache
	if cs == nil || cs.Hits == 0 {
		t.Fatalf("query cache never hit: %+v", cs)
	}

	pst := s.Stats().Planner
	if pst == nil {
		t.Fatal("PlannerStats not available with the planner enabled")
	}
	if pst.Batches != 2 || pst.Nodes != stats.Nodes || pst.Workers != 4 {
		t.Fatalf("accumulated stats wrong: %+v", pst)
	}
	if plannerTestSystem(t).Stats().Planner != nil {
		t.Fatal("PlannerStats available on a planner-less System")
	}
}

func TestPlanDistributionsGateRejected(t *testing.T) {
	s := plannerTestSystem(t)
	queries := plannerBatchQueries(t, s)
	out, stats := s.PlanDistributions(context.Background(), queries,
		func() bool { return false }, nil)
	for i := range out {
		if out[i].Err != ErrGateRejected {
			t.Fatalf("entry %d: err = %v, want ErrGateRejected", i, out[i].Err)
		}
	}
	if stats.Convolutions != 0 {
		t.Fatalf("rejected batch still convolved: %+v", stats)
	}
}

// A batch entry that cannot be evaluated fails alone: entries sharing
// its prefix sub-paths answer normally and identically.
func TestPlanDistributionsErrorContainment(t *testing.T) {
	s := plannerTestSystem(t)
	queries := plannerBatchQueries(t, s)
	trunk := queries[len(queries)-1].Path
	depart := queries[0].Depart
	// Repeating the trunk's first edge breaks path validity at the
	// final chain step — after its prefixes joined the shared trie.
	bad := append(append(Path{}, trunk...), trunk[0])
	withBad := append([]PlanQuery{{Path: bad, Depart: depart}}, queries...)

	out, _ := s.PlanDistributions(context.Background(), withBad, nil, nil)
	if out[0].Err == nil {
		t.Fatal("invalid-path entry succeeded")
	}
	for i := 1; i < len(out); i++ {
		if out[i].Err != nil {
			t.Fatalf("valid entry %d poisoned by its neighbour: %v", i, out[i].Err)
		}
		res, err := s.CurrentEpoch().Hybrid.CostDistribution(withBad[i].Path, withBad[i].Depart, withBad[i].Opt)
		if err != nil {
			t.Fatal(err)
		}
		if !identicalPlanHist(res.Dist, out[i].Res.Dist) {
			t.Fatalf("valid entry %d diverged next to a failing neighbour", i)
		}
	}
}
