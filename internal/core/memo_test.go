package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/graph"
)

func TestMemoMatchesUnmemoizedByteIdentical(t *testing.T) {
	g, data, params := table1Fixture(t)
	_ = g
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	path := graph.Path{0, 1, 2, 3, 4}
	memo := NewConvMemo(256)
	for _, method := range []Method{MethodOD, MethodHP, MethodLB} {
		opt := QueryOptions{Method: method}
		for _, depart := range []float64{8 * 3600, 8*3600 + 300, 9 * 3600} {
			// Every prefix, twice: the second pass must be answered
			// from memoized states and still match exactly.
			for pass := 0; pass < 2; pass++ {
				for n := 1; n <= len(path); n++ {
					p := path[:n]
					plain, err := h.CostDistribution(p, depart, opt)
					if err != nil {
						t.Fatalf("%s n=%d: plain: %v", method, n, err)
					}
					memod, err := (&Evaluator{H: h, Memo: memo}).Distribution(context.Background(), p, depart, opt)
					if err != nil {
						t.Fatalf("%s n=%d: memo: %v", method, n, err)
					}
					ab, bb := plain.Dist.Buckets(), memod.Dist.Buckets()
					if len(ab) != len(bb) {
						t.Fatalf("%s n=%d pass %d: %d vs %d buckets", method, n, pass, len(ab), len(bb))
					}
					for i := range ab {
						if ab[i] != bb[i] {
							t.Fatalf("%s n=%d pass %d bucket %d: plain %+v vs memo %+v",
								method, n, pass, i, ab[i], bb[i])
						}
					}
					if plain.Decomp.Cardinality() != memod.Decomp.Cardinality() ||
						plain.Decomp.MaxRank() != memod.Decomp.MaxRank() {
						t.Fatalf("%s n=%d: decompositions differ", method, n)
					}
				}
			}
		}
	}
	if st := memo.Stats(); st.Hits == 0 {
		t.Fatalf("memo never hit: %+v", st)
	}
}

func TestMemoRDFallsThrough(t *testing.T) {
	g, data, params := table1Fixture(t)
	_ = g
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewConvMemo(64)
	p := graph.Path{0, 1, 2}
	rd, err := (&Evaluator{H: h, Memo: memo}).Distribution(context.Background(), p, 8*3600, QueryOptions{Method: MethodRD, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := h.CostDistribution(p, 8*3600, QueryOptions{Method: MethodRD, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Dist.Mean() != plain.Dist.Mean() {
		t.Fatalf("RD memoized mean %v != plain %v", rd.Dist.Mean(), plain.Dist.Mean())
	}
	if st := memo.Stats(); st.Entries != 0 {
		t.Fatalf("RD stored %d memo entries, want 0", st.Entries)
	}
}

func TestMemoExactDepartureKeys(t *testing.T) {
	// Two departures in one α-interval must not share an entry: the
	// memo is exact, unlike the α-interval query cache.
	g, data, params := table1Fixture(t)
	_ = g
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewConvMemo(64)
	p := graph.Path{0, 1}
	opt := QueryOptions{Method: MethodOD}
	for _, depart := range []float64{8 * 3600, 8*3600 + 60} {
		memod, err := (&Evaluator{H: h, Memo: memo}).Distribution(context.Background(), p, depart, opt)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := h.CostDistribution(p, depart, opt)
		if err != nil {
			t.Fatal(err)
		}
		if memod.Dist.Mean() != plain.Dist.Mean() {
			t.Fatalf("depart %v: memo %v != plain %v", depart, memod.Dist.Mean(), plain.Dist.Mean())
		}
	}
	if st := memo.Stats(); st.Entries != 4 { // 2 departures × 2 prefixes
		t.Fatalf("entries = %d, want 4 (no aliasing between departures)", st.Entries)
	}
}

func TestMemoConcurrentSharedStates(t *testing.T) {
	// Many goroutines extend the same memoized prefix states; run
	// under -race this proves the states are safely shareable (the
	// multiply purity guarantee).
	g, data, params := table1Fixture(t)
	_ = g
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewConvMemo(256)
	path := graph.Path{0, 1, 2, 3, 4}
	want, err := h.CostDistribution(path, 8*3600, QueryOptions{Method: MethodOD})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; n <= len(path); n++ {
				res, err := (&Evaluator{H: h, Memo: memo}).Distribution(context.Background(), path[:n], 8*3600, QueryOptions{Method: MethodOD})
				if err != nil {
					errs <- err
					return
				}
				if n == len(path) && res.Dist.Mean() != want.Dist.Mean() {
					errs <- errMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = fmtError("memoized mean diverged under concurrency")

type fmtError string

func (e fmtError) Error() string { return string(e) }
