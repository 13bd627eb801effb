package core

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// Selection must respect both budgets exactly: never more entries
// than MaxEntries, never more serialized bytes than MaxBytes.
func TestSynopsisBudgetsRespected(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	full := graph.Path{0, 1, 2, 3, 4}
	var workload []WorkloadQuery
	for n := 2; n <= len(full); n++ {
		workload = append(workload, WorkloadQuery{Path: full[:n], Depart: 8 * 3600})
		workload = append(workload, WorkloadQuery{Path: full[:n], Depart: 9 * 3600})
	}

	unbounded, err := h.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.Len() == 0 {
		t.Fatal("nothing selected with an effectively unbounded budget")
	}

	for _, entries := range []int{1, 2, 3} {
		syn, err := h.BuildSynopsis(workload, SynopsisConfig{MaxEntries: entries})
		if err != nil {
			t.Fatal(err)
		}
		if syn.Len() > entries {
			t.Fatalf("entry budget %d exceeded: %d entries", entries, syn.Len())
		}
	}

	byteBudget := unbounded.Bytes() / 2
	syn, err := h.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 1000, MaxBytes: byteBudget})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Bytes() > byteBudget {
		t.Fatalf("byte budget %d exceeded: %d bytes", byteBudget, syn.Bytes())
	}
	if syn.Len() == 0 || syn.Len() >= unbounded.Len() {
		t.Fatalf("byte budget %d selected %d of %d entries; expected a strict, non-empty subset",
			byteBudget, syn.Len(), unbounded.Len())
	}
}

// With budget for a single entry, the greedy must pick the candidate
// with the highest weight × depth-saved marginal: the deepest prefix
// shared by the whole workload beats shallower (more frequent per
// query but less saving) and deeper (rarer) ones.
func TestSynopsisGreedyPicksBestMarginal(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	full := graph.Path{0, 1, 2, 3, 4}
	// 10 queries of depth 4 and one of depth 5, all sharing prefixes.
	var workload []WorkloadQuery
	workload = append(workload, WorkloadQuery{Path: full[:4], Depart: 8 * 3600, Weight: 10})
	workload = append(workload, WorkloadQuery{Path: full, Depart: 8 * 3600, Weight: 1})

	syn, err := h.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Len() != 1 {
		t.Fatalf("selected %d entries, want 1", syn.Len())
	}
	// Marginals: prefix[:4] saves (10+1)×4 = 44; prefix[:5] saves
	// 10×4 + 1×5 = 45 — wait, [:5] only serves the depth-5 query
	// (prefix containment is exact): 1×5 = 5. [:4] serves both:
	// (10+1)×4 = 44. So [:4] must win.
	st, ok := syn.Lookup(full[:4], 8*3600, QueryOptions{Method: MethodOD})
	if !ok {
		t.Fatalf("greedy picked %v, want the shared depth-4 prefix", syn.Keys())
	}
	if !st.Path().Equal(full[:4]) {
		t.Fatalf("entry path %v, want %v", st.Path(), full[:4])
	}
}

// Selection must be deterministic: same workload, same budgets, same
// entries and bytes, run after run.
func TestSynopsisSelectionDeterministic(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	full := graph.Path{0, 1, 2, 3, 4}
	var workload []WorkloadQuery
	for n := 2; n <= len(full); n++ {
		for _, dep := range []float64{8 * 3600, 8*3600 + 450, 9 * 3600} {
			workload = append(workload, WorkloadQuery{Path: full[:n], Depart: dep})
		}
	}
	a, err := h.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 7})
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := a.Keys(), b.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("entry counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("selection differs at %d: %q vs %q", i, ka[i], kb[i])
		}
	}
	if a.Bytes() != b.Bytes() {
		t.Fatalf("byte accounting differs: %d vs %d", a.Bytes(), b.Bytes())
	}
}

// A full-path synopsis hit must answer with zero convolutions: no
// memo present, no chain work — the state is already materialized,
// and the probe counters must say so.
func TestSynopsisHitIsZeroConvolutions(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	p := graph.Path{0, 1, 2, 3}
	dep := 8 * 3600.0
	syn, err := h.BuildSynopsis([]WorkloadQuery{{Path: p, Depart: dep}}, SynopsisConfig{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := syn.Stats()
	st, err := (&Evaluator{H: h, Syn: syn}).State(context.Background(), p, dep, QueryOptions{Method: MethodOD})
	if err != nil {
		t.Fatal(err)
	}
	after := syn.Stats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("probe counters: before %+v, after %+v; want exactly one hit", before, after)
	}
	// The returned state must be the stored one, not a recomputation.
	stored, _ := syn.Lookup(p, dep, QueryOptions{Method: MethodOD})
	if st != stored {
		t.Fatal("full-path hit returned a recomputed state instead of the stored one")
	}
	// A query for a path outside the synopsis counts a miss.
	if _, err := (&Evaluator{H: h, Syn: syn}).State(context.Background(), graph.Path{1, 2}, dep, QueryOptions{Method: MethodOD}); err != nil {
		t.Fatal(err)
	}
	if st := syn.Stats(); st.Misses != after.Misses+1 {
		t.Fatalf("miss not counted: %+v", st)
	}
}

// A synopsis prefix must compose with the runtime memo: resuming from
// the synopsis base, the extension states land in the memo.
func TestSynopsisComposesWithMemo(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	full := graph.Path{0, 1, 2, 3, 4}
	dep := 8 * 3600.0
	// Synopsis holds only the depth-3 prefix.
	syn, err := h.BuildSynopsis([]WorkloadQuery{{Path: full[:3], Depart: dep}}, SynopsisConfig{MaxEntries: 1, MinDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if syn.Len() != 1 {
		t.Fatalf("fixture synopsis has %d entries, want 1", syn.Len())
	}
	memo := NewConvMemo(64)
	if _, err := (&Evaluator{H: h, Syn: syn, Memo: memo}).State(context.Background(), full, dep, QueryOptions{Method: MethodOD}); err != nil {
		t.Fatal(err)
	}
	// Extensions [:4] and [:5] were computed once and memoized.
	if st := memo.Stats(); st.Entries != 2 {
		t.Fatalf("memo holds %d states after composing, want 2 (the extensions)", st.Entries)
	}
	if st := syn.Stats(); st.Hits != 1 {
		t.Fatalf("synopsis hits = %d, want 1 (the depth-3 base)", st.Hits)
	}
	// Second evaluation: deepest base now comes from the memo, and no
	// new states are stored.
	if _, err := (&Evaluator{H: h, Syn: syn, Memo: memo}).State(context.Background(), full, dep, QueryOptions{Method: MethodOD}); err != nil {
		t.Fatal(err)
	}
	if st := memo.Stats(); st.Entries != 2 || st.Hits == 0 {
		t.Fatalf("memo after warm pass: %+v", st)
	}
}

// RD has no incremental evaluator; building a synopsis for it must
// fail loudly, as must degenerate budgets and empty workloads.
func TestSynopsisBuildRejectsBadInput(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	wl := []WorkloadQuery{{Path: graph.Path{0, 1}, Depart: 8 * 3600}}
	if _, err := h.BuildSynopsis(wl, SynopsisConfig{MaxEntries: 4, Method: MethodRD}); err == nil {
		t.Fatal("RD synopsis built without error")
	}
	if _, err := h.BuildSynopsis(wl, SynopsisConfig{MaxEntries: 0}); err == nil {
		t.Fatal("zero entry budget accepted")
	}
	if _, err := h.BuildSynopsis(nil, SynopsisConfig{MaxEntries: 4}); err == nil {
		t.Fatal("empty workload accepted")
	}
	if _, err := h.BuildSynopsis([]WorkloadQuery{{Path: graph.Path{0, 4}, Depart: 0}},
		SynopsisConfig{MaxEntries: 4}); err == nil {
		t.Fatal("invalid workload path accepted")
	}
}

// Weights must steer selection: under a one-entry budget, a heavy
// query's prefix beats a light query's deeper prefix.
func TestSynopsisWeightsSteerSelection(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	heavy := graph.Path{0, 1}       // depth 2, weight 100 → marginal 200
	light := graph.Path{1, 2, 3, 4} // depth 4, weight 1 → marginal ≤ 4×..
	workload := []WorkloadQuery{
		{Path: heavy, Depart: 8 * 3600, Weight: 100},
		{Path: light, Depart: 8 * 3600, Weight: 1},
	}
	syn, err := h.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := syn.Lookup(heavy, 8*3600, QueryOptions{}); !ok {
		t.Fatalf("weight-100 prefix not selected; entries: %v", syn.Keys())
	}
}
