package routing

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hist"
)

// sameBuckets asserts bucket-level identity of two distributions —
// the byte-identity guarantee the convolution memo makes.
func sameBuckets(t *testing.T, ctx string, a, b *hist.Histogram) {
	t.Helper()
	ab, bb := a.Buckets(), b.Buckets()
	if len(ab) != len(bb) {
		t.Fatalf("%s: %d vs %d buckets", ctx, len(ab), len(bb))
	}
	for i := range ab {
		if ab[i] != bb[i] {
			t.Fatalf("%s: bucket %d differs: %+v vs %+v", ctx, i, ab[i], bb[i])
		}
	}
}

// TestMemoEquivalence proves BestPath, TopKPaths and SkylinePaths
// return byte-identical answers with the memo on and off, for every
// incremental method, across repeated queries (the second round is
// answered almost entirely from the memo).
func TestMemoEquivalence(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	plain := New(&core.Evaluator{H: h})
	memo := core.NewConvMemo(4096)
	memod := New(&core.Evaluator{H: h, Memo: memo})

	for _, m := range []core.Method{core.MethodOD, core.MethodHP, core.MethodLB} {
		q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2}
		opt := Options{Method: m, Incremental: true}
		for round := 0; round < 2; round++ {
			pb, err := plain.BestPath(q, opt)
			if err != nil {
				t.Fatalf("%s round %d: plain BestPath: %v", m, round, err)
			}
			mb, err := memod.BestPath(q, opt)
			if err != nil {
				t.Fatalf("%s round %d: memo BestPath: %v", m, round, err)
			}
			if !pb.Path.Equal(mb.Path) || pb.Prob != mb.Prob {
				t.Fatalf("%s round %d: BestPath diverged: %v p=%v vs %v p=%v",
					m, round, pb.Path, pb.Prob, mb.Path, mb.Prob)
			}
			sameBuckets(t, "BestPath dist", pb.Dist, mb.Dist)

			pk, err := plain.TopKPaths(q, 3, opt)
			if err != nil {
				t.Fatalf("%s round %d: plain TopK: %v", m, round, err)
			}
			mk, err := memod.TopKPaths(q, 3, opt)
			if err != nil {
				t.Fatalf("%s round %d: memo TopK: %v", m, round, err)
			}
			if len(pk) != len(mk) {
				t.Fatalf("%s round %d: topk lengths %d vs %d", m, round, len(pk), len(mk))
			}
			for i := range pk {
				if !pk[i].Path.Equal(mk[i].Path) || pk[i].Prob != mk[i].Prob {
					t.Fatalf("%s round %d: topk[%d] diverged", m, round, i)
				}
				sameBuckets(t, "TopK dist", pk[i].Dist, mk[i].Dist)
			}

			ps, err := plain.SkylinePaths(q, 4, opt)
			if err != nil {
				t.Fatalf("%s round %d: plain skyline: %v", m, round, err)
			}
			ms, err := memod.SkylinePaths(q, 4, opt)
			if err != nil {
				t.Fatalf("%s round %d: memo skyline: %v", m, round, err)
			}
			if len(ps) != len(ms) {
				t.Fatalf("%s round %d: skyline lengths %d vs %d", m, round, len(ps), len(ms))
			}
			for i := range ps {
				if !ps[i].Path.Equal(ms[i].Path) {
					t.Fatalf("%s round %d: skyline[%d] diverged", m, round, i)
				}
			}
		}
	}
	if st := memo.Stats(); st.Hits == 0 {
		t.Fatalf("memo never hit: %+v", st)
	}
}

// TestMemoConcurrentQueries runs overlapping routing queries from one
// source through a shared memo; under -race this proves memoized
// chain states are safely shared, and every result must match the
// memo-off answer bit for bit.
func TestMemoConcurrentQueries(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, ff := pickQuery(t, g)
	plain := New(&core.Evaluator{H: h})
	memo := core.NewConvMemo(4096)
	memod := New(&core.Evaluator{H: h, Memo: memo})
	q := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: ff * 2}
	opt := Options{Incremental: true}
	want, err := plain.BestPath(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantK, err := plain.TopKPaths(q, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 24)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w%2 == 0 {
				res, err := memod.BestPath(q, opt)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !res.Path.Equal(want.Path) || res.Prob != want.Prob {
					errs <- "concurrent BestPath diverged from memo-off result"
				}
			} else {
				res, err := memod.TopKPaths(q, 2, opt)
				if err != nil {
					errs <- err.Error()
					return
				}
				if len(res) != len(wantK) || !res[0].Path.Equal(wantK[0].Path) || res[0].Prob != wantK[0].Prob {
					errs <- "concurrent TopKPaths diverged from memo-off result"
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestRoutingEdgeCasesWithMemo pins the degenerate-query contract the
// memo must not change: src == dst errors, and a zero budget behaves
// identically with and without the memo.
func TestRoutingEdgeCasesWithMemo(t *testing.T) {
	g, h := hybridFixture(t)
	src, dst, _ := pickQuery(t, g)
	memo := core.NewConvMemo(1024)
	r := New(&core.Evaluator{H: h, Memo: memo})

	// Source equals destination: rejected by every query family.
	if _, err := r.BestPath(Query{Source: src, Dest: src, Budget: 100}, Options{Incremental: true}); err == nil {
		t.Fatal("BestPath accepted src == dst")
	}
	if _, err := r.TopKPaths(Query{Source: src, Dest: src, Budget: 100}, 2, Options{}); err == nil {
		t.Fatal("TopKPaths accepted src == dst")
	}
	if _, err := r.SkylinePaths(Query{Source: src, Dest: src, Budget: 100}, 2, Options{}); err == nil {
		t.Fatal("SkylinePaths accepted src == dst")
	}

	// Zero budget: P(cost ≤ 0) is 0 everywhere, so the search cannot
	// beat the initial incumbent bound; whatever the outcome (a
	// zero-probability path or a not-found error), it must be the
	// same with and without the memo.
	plain := New(&core.Evaluator{H: h})
	zq := Query{Source: src, Dest: dst, Depart: 8 * 3600, Budget: 0}
	pres, perr := plain.BestPath(zq, Options{Incremental: true})
	mres, merr := r.BestPath(zq, Options{Incremental: true})
	if (perr == nil) != (merr == nil) {
		t.Fatalf("zero budget: plain err %v, memo err %v", perr, merr)
	}
	if perr == nil {
		if !pres.Path.Equal(mres.Path) || pres.Prob != mres.Prob {
			t.Fatalf("zero budget diverged: %v p=%v vs %v p=%v", pres.Path, pres.Prob, mres.Path, mres.Prob)
		}
		if pres.Prob != 0 {
			t.Fatalf("zero budget path has positive probability %v", pres.Prob)
		}
	}

	// Unreachable-ish sanity: a vertex with no outgoing edges cannot
	// be a source of any path.
	for v := 0; v < g.NumVertices(); v++ {
		if len(g.Out(graph.VertexID(v))) == 0 && graph.VertexID(v) != dst {
			if _, err := r.BestPath(Query{Source: graph.VertexID(v), Dest: dst, Budget: 1000}, Options{Incremental: true}); err == nil {
				t.Fatalf("BestPath from sink vertex %d succeeded", v)
			}
			break
		}
	}
}
