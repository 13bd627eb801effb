package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// partitionedFixture builds the Table 1 model and filters it so no
// variable spans the cut between edges 2 and 3 — the shape a region
// partition guarantees. The cut splits the query path <e0..e4> into
// segments <e0,e1,e2> and <e3,e4>.
func partitionedFixture(t testing.TB) *HybridGraph {
	t.Helper()
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	inSeg := func(p graph.Path, lo, hi graph.EdgeID) bool {
		for _, e := range p {
			if e < lo || e > hi {
				return false
			}
		}
		return true
	}
	return h.FilterVariables(func(v *Variable) bool {
		return inSeg(v.Path, 0, 2) || inSeg(v.Path, 3, 4)
	})
}

func TestChainStateEncodeDecodeRoundTrip(t *testing.T) {
	h := partitionedFixture(t)
	seg := graph.Path{0, 1, 2}
	depart := 8 * 3600.0
	res, err := (&Evaluator{H: h}).EvaluateSegment(context.Background(), SegmentInput{
		Path: seg, Depart: depart,
		UI: TimeInterval{Lo: depart, Hi: depart},
	})
	if err != nil {
		t.Fatalf("EvaluateSegment: %v", err)
	}
	if !res.State.AccOnly() {
		t.Fatalf("relay state has open dims %v, want acc-only", res.State.Open())
	}
	enc, err := res.State.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.HasPrefix(enc, []byte(partialStateVersion+"\n")) {
		t.Fatalf("encoding lacks version header: %q", enc[:min(len(enc), 40)])
	}
	dec, err := DecodeChainState(enc, len(seg))
	if err != nil {
		t.Fatalf("DecodeChainState: %v", err)
	}
	enc2, err := dec.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("encode/decode/encode is not a fixed point:\n%s\nvs\n%s", enc, enc2)
	}
}

// TestEvaluateSegmentRelayMatchesWholePath is the exactness theorem
// behind the sharded tier: on a model where no variable spans the
// cut, relaying (state, UI) across the cut reproduces the whole-path
// evaluation bit for bit — same buckets, same decomposition shape.
func TestEvaluateSegmentRelayMatchesWholePath(t *testing.T) {
	h := partitionedFixture(t)
	full := graph.Path{0, 1, 2, 3, 4}
	segA, segB := graph.Path{0, 1, 2}, graph.Path{3, 4}
	depart := 8 * 3600.0

	for _, m := range []Method{MethodOD, MethodHP, MethodLB} {
		opt := QueryOptions{Method: m}
		whole, err := h.CostDistribution(full, depart, opt)
		if err != nil {
			t.Fatalf("%s: CostDistribution: %v", m, err)
		}

		r1, err := (&Evaluator{H: h}).EvaluateSegment(context.Background(), SegmentInput{
			Path: segA, Depart: depart,
			UI: TimeInterval{Lo: depart, Hi: depart}, Opt: opt,
		})
		if err != nil {
			t.Fatalf("%s: first segment: %v", m, err)
		}
		// Round-trip the relay through its wire encoding, exactly as the
		// coordinator does between processes.
		enc, err := r1.State.Encode()
		if err != nil {
			t.Fatalf("%s: Encode: %v", m, err)
		}
		relay, err := DecodeChainState(enc, len(segB))
		if err != nil {
			t.Fatalf("%s: DecodeChainState: %v", m, err)
		}
		r2, err := (&Evaluator{H: h}).EvaluateSegment(context.Background(), SegmentInput{
			Path: segB, Depart: depart, UI: r1.UI, State: relay, Opt: opt,
		})
		if err != nil {
			t.Fatalf("%s: continuation: %v", m, err)
		}
		dist, err := r2.State.Finalize(h.Params.MaxResultBuckets)
		if err != nil {
			t.Fatalf("%s: Finalize: %v", m, err)
		}
		if !reflect.DeepEqual(dist.Buckets(), whole.Dist.Buckets()) {
			t.Errorf("%s: composed distribution differs from whole-path:\n%v\nvs\n%v",
				m, dist.Buckets(), whole.Dist.Buckets())
		}
		if got, want := r1.Factors+r2.Factors, whole.Decomp.Cardinality(); got != want {
			t.Errorf("%s: segment factors sum to %d, whole decomposition has %d", m, got, want)
		}
		if got, want := max(r1.MaxRank, r2.MaxRank), whole.Decomp.MaxRank(); got != want {
			t.Errorf("%s: segment max rank %d, whole %d", m, got, want)
		}
	}
}

// TestEvaluateSegmentFirstUsesStores checks that a first segment with
// a synopsis/memo answers byte-identically to the store-free path —
// the store-equivalence guarantee extends to partial evaluation.
func TestEvaluateSegmentFirstUsesStores(t *testing.T) {
	h := partitionedFixture(t)
	seg := graph.Path{0, 1, 2}
	depart := 8 * 3600.0
	in := SegmentInput{Path: seg, Depart: depart, UI: TimeInterval{Lo: depart, Hi: depart}}

	bare, err := (&Evaluator{H: h}).EvaluateSegment(context.Background(), in)
	if err != nil {
		t.Fatalf("bare: %v", err)
	}
	memo := NewConvMemo(256)
	var warmed *SegmentResult
	for i := 0; i < 2; i++ { // second pass resumes from the memo
		warmed, err = (&Evaluator{H: h, Memo: memo}).EvaluateSegment(context.Background(), in)
		if err != nil {
			t.Fatalf("memo pass %d: %v", i, err)
		}
	}
	be, _ := bare.State.Encode()
	we, _ := warmed.State.Encode()
	if !bytes.Equal(be, we) {
		t.Fatalf("memo-backed first segment diverged from bare evaluation")
	}
	if bare.UI != warmed.UI || bare.Factors != warmed.Factors || bare.MaxRank != warmed.MaxRank {
		t.Fatalf("segment metadata diverged: %+v vs %+v", bare, warmed)
	}
}

func TestEvaluateSegmentRejections(t *testing.T) {
	h := partitionedFixture(t)
	depart := 8 * 3600.0
	point := TimeInterval{Lo: depart, Hi: depart}
	relay := func() *ChainState {
		res, err := (&Evaluator{H: h}).EvaluateSegment(context.Background(), SegmentInput{Path: graph.Path{0, 1, 2}, Depart: depart, UI: point})
		if err != nil {
			t.Fatalf("building relay state: %v", err)
		}
		return res.State
	}()

	cases := []struct {
		name string
		in   SegmentInput
		want string
	}{
		{"empty", SegmentInput{Depart: depart, UI: point}, "empty segment"},
		{"invalid path", SegmentInput{Path: graph.Path{0, 3}, Depart: depart, UI: point}, "not a valid path"},
		{"rd", SegmentInput{Path: graph.Path{0, 1}, Depart: depart, UI: point, Opt: QueryOptions{Method: MethodRD}}, "cannot be evaluated segment by segment"},
		{"inverted ui", SegmentInput{Path: graph.Path{0, 1}, Depart: depart, UI: TimeInterval{Lo: 2, Hi: 1}}, "inverted departure interval"},
		{"first not point", SegmentInput{Path: graph.Path{0, 1}, Depart: depart, UI: TimeInterval{Lo: depart, Hi: depart + 60}}, "point interval"},
		{"unknown method", SegmentInput{Path: graph.Path{3, 4}, Depart: depart, UI: point, State: relay, Opt: QueryOptions{Method: "XX"}}, "unknown method"},
	}
	for _, tc := range cases {
		_, err := (&Evaluator{H: h}).EvaluateSegment(context.Background(), tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// A continuation must start from an accumulator-only state.
	st, err := (&Evaluator{H: h}).State(context.Background(), graph.Path{0, 1, 2}, depart, QueryOptions{Method: MethodOD})
	if err != nil {
		t.Fatalf("State: %v", err)
	}
	if st.preFold == nil || len(st.preFold.open) == 0 {
		t.Skip("fixture produced no open pre-fold state")
	}
	open := &ChainState{cs: st.preFold}
	_, err = (&Evaluator{H: h}).EvaluateSegment(context.Background(), SegmentInput{
		Path: graph.Path{3, 4}, Depart: depart, UI: point, State: open,
	})
	if err == nil || !strings.Contains(err.Error(), "accumulator-only") {
		t.Errorf("open-dim continuation: got %v, want accumulator-only rejection", err)
	}
}

func TestDecodeChainStateRejectsGarbage(t *testing.T) {
	h := partitionedFixture(t)
	res, err := (&Evaluator{H: h}).EvaluateSegment(context.Background(), SegmentInput{
		Path: graph.Path{0, 1, 2}, Depart: 8 * 3600.0,
		UI: TimeInterval{Lo: 8 * 3600.0, Hi: 8 * 3600.0},
	})
	if err != nil {
		t.Fatalf("EvaluateSegment: %v", err)
	}
	good, err := res.State.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	cases := map[string][]byte{
		"empty":         nil,
		"wrong version": []byte("pstate-v9\ns 0\n"),
		"no state":      []byte(partialStateVersion + "\n"),
		"truncated":     good[:len(good)-len(good)/3],
		"binary":        {0x00, 0xff, 0x13, 0x37},
		"html":          []byte("<html><body>502 Bad Gateway</body></html>"),
	}
	for name, data := range cases {
		if _, err := DecodeChainState(data, 3); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestFilterVariablesStableAndExact(t *testing.T) {
	g, data, params := table1Fixture(t)
	h, err := Build(g, data, params)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	keep := func(v *Variable) bool { return v.Path[0] <= 2 }
	f1 := h.FilterVariables(keep)
	f2 := h.FilterVariables(keep)

	f1.ForEachVariable(func(v *Variable) {
		if !keep(v) {
			t.Errorf("filtered model kept rejected variable %v", v.Path)
		}
	})
	total, kept, matched := 0, 0, 0
	h.ForEachVariable(func(v *Variable) {
		total++
		if keep(v) {
			matched++
		}
	})
	f1.ForEachVariable(func(*Variable) { kept++ })
	if kept != matched || kept == 0 || kept == total {
		t.Fatalf("filter kept %d of %d (predicate matches %d)", kept, total, matched)
	}

	var b1, b2 bytes.Buffer
	if err := f1.WriteModelSynopsis(&b1, nil); err != nil {
		t.Fatalf("serialize f1: %v", err)
	}
	if err := f2.WriteModelSynopsis(&b2, nil); err != nil {
		t.Fatalf("serialize f2: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("filtered model does not serialize byte-stably")
	}
}

// FuzzPartialState feeds arbitrary bytes to the partial-state decoder:
// it must reject or accept, never panic, and anything it accepts must
// re-encode to a decodable state.
func FuzzPartialState(f *testing.F) {
	h := partitionedFixture(f)
	res, err := (&Evaluator{H: h}).EvaluateSegment(context.Background(), SegmentInput{
		Path: graph.Path{0, 1, 2}, Depart: 8 * 3600.0,
		UI: TimeInterval{Lo: 8 * 3600.0, Hi: 8 * 3600.0},
	})
	if err != nil {
		f.Fatalf("EvaluateSegment: %v", err)
	}
	good, err := res.State.Encode()
	if err != nil {
		f.Fatalf("Encode: %v", err)
	}
	f.Add(good)
	f.Add([]byte(partialStateVersion + "\ns 0\n"))
	f.Add([]byte(partialStateVersion + "\ns 2 0 1\n"))
	f.Add([]byte("pstate-v9\n"))
	f.Add([]byte("<html>oops</html>"))
	f.Add([]byte{0x00, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeChainState(data, 8)
		if err != nil {
			return
		}
		enc, err := st.Encode()
		if err != nil {
			t.Fatalf("accepted state failed to encode: %v", err)
		}
		if _, err := DecodeChainState(enc, 8); err != nil {
			t.Fatalf("re-encoded state failed to decode: %v", err)
		}
	})
}
