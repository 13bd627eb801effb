package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/hist"
)

// This file is the differential oracle harness: a deliberately naive,
// obviously-correct implementation of the Equation 2 evaluation — no
// memo, no lazy marginals, no synopsis, no incremental resumption —
// against which every optimized evaluation path is checked for
// byte-identical output on randomly generated workloads. The naive
// evaluator applies the chain primitives (initialState, multiply,
// foldTo) in one straight-line loop, so anything the optimized paths
// add (prefix reuse, shared states, persisted states) must be
// observationally invisible.

// naiveDistribution evaluates query p departing at t the slow,
// transparent way.
func naiveDistribution(h *HybridGraph, p graph.Path, t float64, opt QueryOptions) (*hist.Histogram, error) {
	ca, err := h.BuildCandidateArray(p, t)
	if err != nil {
		return nil, err
	}
	var de *Decomposition
	switch opt.Method {
	case MethodOD, "":
		de = ca.CoarsestDecomposition(opt.RankCap)
	case MethodHP:
		de = ca.PairDecomposition()
	case MethodLB:
		de = ca.UnitDecomposition()
	default:
		return nil, nil
	}
	if err := de.Validate(p); err != nil {
		return nil, err
	}
	// Single factor covering the whole query: its own distribution is
	// the answer (mirrors Evaluate's "lucky" case).
	if len(de.Vars) == 1 {
		v := de.Vars[0]
		if v.Hist != nil {
			return v.Hist, nil
		}
		return v.Joint.SumHistogram(h.Params.MaxResultBuckets)
	}
	var state *chainState
	for i := range de.Vars {
		fm, err := asMulti(de.Vars[i])
		if err != nil {
			return nil, err
		}
		positions := factorPositions(de, i)
		if state == nil {
			state, err = initialState(fm, positions)
		} else {
			state, err = state.multiply(fm, positions, nil)
		}
		if err != nil {
			return nil, err
		}
		state, err = state.foldTo(overlapWithNext(de, i), h.Params.MaxAccBuckets)
		if err != nil {
			return nil, err
		}
	}
	return state.m.SumHistogram(h.Params.MaxResultBuckets)
}

// identicalHist reports bit-level equality of two histograms.
func identicalHist(a, b *hist.Histogram) bool {
	ab, bb := a.Buckets(), b.Buckets()
	if len(ab) != len(bb) {
		return false
	}
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}

// oracleQueries derives a deterministic prefix-heavy query set from a
// workload's full chain path: every prefix of the chain, at a couple
// of departures.
func oracleQueries(g *graph.Graph, seed int64) ([]graph.Path, []float64) {
	full := make(graph.Path, g.NumEdges())
	for i := range full {
		full[i] = graph.EdgeID(i)
	}
	var paths []graph.Path
	for n := 1; n <= len(full); n++ {
		paths = append(paths, full[:n])
	}
	rnd := rand.New(rand.NewSource(seed))
	departs := []float64{8 * 3600, 8*3600 + float64(rnd.Intn(1200))}
	return paths, departs
}

// PROPERTY: on arbitrary random workloads, every evaluation entry
// point reproduces CostDistribution bit for bit under every store
// configuration — none, memo, synopsis, both — for every method,
// every prefix of the query chain, and repeated evaluation (warm
// states); and CostDistribution itself reproduces the naive oracle.
// The entry points are Evaluator.Distribution, Evaluator.State, an
// Evaluator.Extend chain, BatchPlanner.Distributions and a first
// segment of Evaluator.EvaluateSegment. RD has no incremental
// evaluator: its Distribution and planned answers bypass the stores,
// and State, Extend and EvaluateSegment refuse it.
//
// A chain state's own marginal (State, Extend, a finalized segment)
// matches CostDistribution whenever the decomposition has more than
// one factor; a single factor's answer is the variable's own
// distribution (Evaluate's "lucky" case), which chain states do not
// take, so there they are compared against the store-free state.
func TestOracleDifferentialByteIdentity(t *testing.T) {
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	f := func(seed int64) bool {
		g, data, params := randomWorkload(seed)
		h, err := Build(g, data, params)
		if err != nil {
			return false
		}
		paths, departs := oracleQueries(g, seed)
		fail := func(format string, args ...any) bool {
			t.Logf("seed %d: "+format, append([]any{seed}, args...)...)
			return false
		}

		for _, method := range []Method{MethodOD, MethodHP, MethodLB, MethodRD} {
			opt := QueryOptions{Method: method, Seed: seed}
			incremental := method != MethodRD
			// One synopsis over the whole query set, one shared memo.
			// RD queries bypass whatever store is attached, so they
			// run against the OD synopsis.
			synOpt := QueryOptions{Method: method}
			if !incremental {
				synOpt.Method = MethodOD
			}
			var workload []WorkloadQuery
			for _, p := range paths {
				for _, dep := range departs {
					workload = append(workload, WorkloadQuery{Path: p, Depart: dep})
				}
			}
			syn, err := h.BuildSynopsis(workload, SynopsisConfig{
				MaxEntries: 64, Method: synOpt.Method, MinDepth: 2,
			})
			if err != nil {
				return fail("synopsis: %v", err)
			}
			memo := NewConvMemo(256)
			stores := map[string]*Evaluator{
				"none": {H: h},
				"memo": {H: h, Memo: memo},
				"syn":  {H: h, Syn: syn},
				"both": {H: h, Syn: syn, Memo: memo},
			}
			for _, dep := range departs {
				want := make([]*QueryResult, len(paths))
				plainState := make([]*hist.Histogram, len(paths))
				batch := make([]PlanQuery, len(paths))
				for i, p := range paths {
					if want[i], err = h.CostDistribution(p, dep, opt); err != nil {
						return fail("%s %v: CostDistribution: %v", method, p, err)
					}
					batch[i] = PlanQuery{Path: p, Depart: dep, Opt: opt}
					if !incremental {
						continue
					}
					naive, err := naiveDistribution(h, p, dep, opt)
					if err != nil {
						return fail("%s %v: naive: %v", method, p, err)
					}
					if !identicalHist(naive, want[i].Dist) {
						return fail("%s %v: CostDistribution diverged from naive oracle", method, p)
					}
					st, err := (&Evaluator{H: h}).State(bg, p, dep, opt)
					if err != nil {
						return fail("%s %v: plain State: %v", method, p, err)
					}
					plainState[i] = st.Dist()
				}
				// stateWant is the answer a chain state's marginal must
				// reproduce for paths[i].
				stateWant := func(i int) *hist.Histogram {
					if len(want[i].Decomp.Vars) > 1 {
						return want[i].Dist
					}
					return plainState[i]
				}
				for pass := 0; pass < 2; pass++ { // cold, then warm
					for name, ev := range stores {
						// A single edge is one factor (no chain step to
						// check ctx in) and, warm, a memo hit.
						for _, p := range []graph.Path{paths[0], paths[len(paths)-1]} {
							if _, err := ev.Distribution(cancelled, p, dep, opt); !errors.Is(err, context.Canceled) {
								return fail("%s %v %s: cancelled ctx gave %v, want %v", method, p, name, err, context.Canceled)
							}
						}
						planned, _ := NewBatchPlanner(2).Distributions(bg, ev, batch)
						for i, p := range paths {
							where := fmt.Sprintf("%s %v pass %d store %s", method, p, pass, name)
							res, err := ev.Distribution(bg, p, dep, opt)
							if err != nil {
								return fail("%s: Distribution: %v", where, err)
							}
							if !identicalHist(want[i].Dist, res.Dist) {
								return fail("%s: Distribution diverged", where)
							}
							if planned[i].Err != nil {
								return fail("%s: planner: %v", where, planned[i].Err)
							}
							if !identicalHist(want[i].Dist, planned[i].Res.Dist) {
								return fail("%s: planner diverged", where)
							}
							st, err := ev.State(bg, p, dep, opt)
							seg, segErr := ev.EvaluateSegment(bg, SegmentInput{
								Path: p, Depart: dep, UI: TimeInterval{Lo: dep, Hi: dep}, Opt: opt,
							})
							ext, extErr := ev.Extend(nil, p[0], dep, opt)
							for _, e := range p[1:] {
								if extErr != nil {
									break
								}
								ext, extErr = ev.Extend(ext, e, dep, opt)
							}
							if !incremental {
								if err == nil || segErr == nil || extErr == nil {
									return fail("%s: RD accepted by State (%v), EvaluateSegment (%v) or Extend (%v)", where, err, segErr, extErr)
								}
								continue
							}
							if err != nil || segErr != nil || extErr != nil {
								return fail("%s: State %v, EvaluateSegment %v, Extend %v", where, err, segErr, extErr)
							}
							segDist, err := seg.State.Finalize(h.Params.MaxResultBuckets)
							if err != nil {
								return fail("%s: Finalize: %v", where, err)
							}
							for entry, got := range map[string]*hist.Histogram{
								"State": st.Dist(), "Extend": ext.Dist(), "EvaluateSegment": segDist,
							} {
								if !identicalHist(stateWant(i), got) {
									return fail("%s: %s diverged", where, entry)
								}
							}
						}
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 8}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// The synopsis-backed answers must survive a save/load round trip
// unchanged: persisted states are exact images of the in-memory ones,
// and the lossless model reader keeps every variable bit-identical.
func TestOracleByteIdentityAfterSaveLoad(t *testing.T) {
	g, data, params := randomWorkload(3)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	paths, departs := oracleQueries(g, 3)
	var workload []WorkloadQuery
	for _, p := range paths {
		for _, dep := range departs {
			workload = append(workload, WorkloadQuery{Path: p, Depart: dep})
		}
	}
	syn, err := h.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	h2, syn2 := reloadModel(t, h, syn, g)
	if syn2 == nil || syn2.Len() != syn.Len() {
		t.Fatalf("synopsis did not survive the round trip: %v", syn2)
	}
	opt := QueryOptions{Method: MethodOD}
	for _, dep := range departs {
		for _, p := range paths {
			want, err := naiveDistribution(h, p, dep, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := (&Evaluator{H: h2, Syn: syn2}).Distribution(context.Background(), p, dep, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !identicalHist(want, got.Dist) {
				t.Fatalf("loaded synopsis diverged from naive oracle on %v@%v", p, dep)
			}
		}
	}
}

// Concurrent queries through one shared synopsis and memo must match
// the oracle bit for bit; under -race this also proves the loaded and
// built states are safely shareable.
func TestOracleConcurrentByteIdentity(t *testing.T) {
	g, data, params := randomWorkload(11)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatal(err)
	}
	paths, departs := oracleQueries(g, 11)
	var workload []WorkloadQuery
	for _, p := range paths {
		workload = append(workload, WorkloadQuery{Path: p, Depart: departs[0]})
	}
	syn, err := h.BuildSynopsis(workload, SynopsisConfig{MaxEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	opt := QueryOptions{Method: MethodOD}
	want := make([]*hist.Histogram, len(paths))
	for i, p := range paths {
		if want[i], err = naiveDistribution(h, p, departs[0], opt); err != nil {
			t.Fatal(err)
		}
	}
	memo := NewConvMemo(128)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i, p := range paths {
					res, err := (&Evaluator{H: h, Syn: syn, Memo: memo}).Distribution(context.Background(), p, departs[0], opt)
					if err != nil {
						errs <- err
						return
					}
					if !identicalHist(want[i], res.Dist) {
						errs <- oracleMismatch(p)
						return
					}
					_ = w
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := syn.Stats(); st.Hits == 0 {
		t.Fatalf("synopsis never hit under the concurrent workload: %+v", st)
	}
}

type oracleMismatch graph.Path

func (e oracleMismatch) Error() string {
	return "concurrent result diverged from naive oracle on " + graph.Path(e).String()
}
