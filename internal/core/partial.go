package core

import (
	"bufio"
	"bytes"
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/hist"
)

// Partial-state evaluation: the cross-shard composition primitive.
//
// A region partition of the road network cuts every query path into
// maximal same-region segments. In a model whose variables each lie
// within a single region, no candidate variable spans a cut, so the
// Eq. 2 chain folds to an accumulator-only state at exactly each
// segment boundary. That state — one dimension, no open edges — plus
// the updated departure interval UI (Eq. 3) is everything the next
// segment's evaluation needs: relaying (state, UI) shard to shard and
// applying each shard's local decomposition reproduces the float
// sequence of whole-path evaluation operation for operation, which is
// what makes sharded answers byte-identical to single-process ones.

// partialStateVersion tags the partial-state wire format. States cross
// process boundaries, so the version fails loudly on mismatch instead
// of misparsing.
const partialStateVersion = "pstate-v1"

// ChainState is an exported handle on one chain evaluation state — the
// running joint of Equation 2 — so it can cross a process boundary
// between shards. Relay states are accumulator-only (no open edges);
// Encode/DecodeChainState accept any state shape.
type ChainState struct {
	cs *chainState
}

// AccOnly reports whether the state has folded every edge into the
// accumulated-cost dimension — the only shape a cross-shard relay
// carries.
func (s *ChainState) AccOnly() bool { return len(s.cs.open) == 0 }

// Open returns the query positions of the state's open dimensions.
func (s *ChainState) Open() []int {
	return append([]int(nil), s.cs.open...)
}

// Encode serializes the state with the same lossless %g encoding the
// synopsis store uses: every float parses back to the identical
// float64, so a decoded state resumes evaluation bit-exactly.
func (s *ChainState) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := fmt.Fprintln(&buf, partialStateVersion); err != nil {
		return nil, err
	}
	if err := writeChainState(&buf, "s", s.cs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeChainState parses an Encode dump. pathLen bounds the open
// positions (relay states have none; pass the segment length). The
// input is untrusted wire data: every index and probability is
// validated, normalization is checked, and malformed input returns a
// descriptive error — never a panic.
func DecodeChainState(data []byte, pathLen int) (*ChainState, error) {
	if pathLen < 1 {
		pathLen = 1
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rd := &hybridReader{sc: sc}
	line, ok := rd.next()
	if !ok {
		return nil, fmt.Errorf("core: empty partial state")
	}
	if line != partialStateVersion {
		return nil, fmt.Errorf("core: unsupported partial state %q (this build reads %s)", line, partialStateVersion)
	}
	cs, err := readChainState(rd, "s", pathLen)
	if err != nil {
		return nil, fmt.Errorf("core: partial state: %w", err)
	}
	return &ChainState{cs: cs}, nil
}

// Finalize flattens an accumulator-only state into the final cost
// distribution, exactly as Evaluate does after its last fold. The
// coordinator calls this with the model's MaxResultBuckets once the
// last segment's state returns.
func (s *ChainState) Finalize(maxResultBuckets int) (*hist.Histogram, error) {
	if len(s.cs.open) != 0 {
		return nil, fmt.Errorf("core: finalizing a state with open dims %v", s.cs.open)
	}
	return s.cs.m.SumHistogram(maxResultBuckets)
}

// SegmentInput describes one segment of a decomposed query: the
// segment's edges, the original departure time, the updated departure
// interval at the segment's first edge, and the accumulated state of
// every earlier segment (nil for the first).
type SegmentInput struct {
	Path   graph.Path
	Depart float64
	UI     TimeInterval
	State  *ChainState
	Opt    QueryOptions
}

// SegmentResult is one segment's contribution: the accumulator-only
// state after the segment's last factor, the updated departure
// interval past the segment's last edge, and the decomposition shape
// (Factors sum and MaxRank max across segments reproduce the
// whole-path decomposition's cardinality and max rank).
type SegmentResult struct {
	State   *ChainState
	UI      TimeInterval
	Factors int
	MaxRank int
}

// EvaluateSegment evaluates one segment of a partitioned query. A
// first segment (nil state) runs the ordinary store-backed
// Evaluator.State and hands out its final folded state; a continuation
// seeds the candidate array with the relayed UI, decomposes the
// segment locally, and multiplies its factors onto the relayed state.
// Continuations never touch the synopsis or memo: their keys assume
// evaluation from a point departure interval, which only the first
// segment has.
//
// RD is rejected: its random decomposition draws one value per row of
// the whole query path, so it cannot be reproduced segment by segment
// (single-region RD queries are proxied whole instead).
//
// ctx bounds the segment's evaluation: the factor chain and edge
// derivations check its deadline as they go.
func (ev *Evaluator) EvaluateSegment(ctx context.Context, in SegmentInput) (*SegmentResult, error) {
	h := ev.H
	if len(in.Path) == 0 {
		return nil, fmt.Errorf("core: cannot evaluate an empty segment")
	}
	if !h.G.ValidPath(in.Path) {
		return nil, fmt.Errorf("core: segment %v is not a valid path", in.Path)
	}
	opt := in.Opt.withDefaults()
	if opt.Method == MethodRD {
		return nil, fmt.Errorf("core: method RD draws one random decomposition over the whole query; it cannot be evaluated segment by segment")
	}
	if in.UI.Hi < in.UI.Lo {
		return nil, fmt.Errorf("core: inverted departure interval [%g, %g]", in.UI.Lo, in.UI.Hi)
	}

	if in.State == nil {
		// First segment: a fresh evaluation from the point departure
		// interval [t, t], exactly what the incremental evaluators
		// compute — so the synopsis and memo apply, and their answers
		// are byte-identical by the store-equivalence guarantee.
		if in.UI.Lo != in.Depart || in.UI.Hi != in.Depart {
			return nil, fmt.Errorf("core: a first segment must start from the point interval [depart, depart], got [%g, %g]", in.UI.Lo, in.UI.Hi)
		}
		st, err := ev.State(ctx, in.Path, in.Depart, opt)
		if err != nil {
			return nil, err
		}
		// Outgoing UI: chain Eq. 3 across the whole segment, the same
		// left fold BuildCandidateArray runs internally.
		ui := in.UI
		for _, e := range in.Path {
			ui = sae(ui, h.bestUnitVariable(e, ui, nil))
		}
		return &SegmentResult{
			State:   &ChainState{cs: st.inter[len(st.inter)-1]},
			UI:      ui,
			Factors: len(st.de.Vars),
			MaxRank: st.de.MaxRank(),
		}, nil
	}

	if !in.State.AccOnly() {
		return nil, fmt.Errorf("core: continuation state must be accumulator-only, has open dims %v", in.State.cs.open)
	}
	ca, uiOut, err := h.buildCandidateArrayFrom(in.Path, in.UI)
	if err != nil {
		return nil, err
	}
	defer ca.Release()
	var de *Decomposition
	switch opt.Method {
	case MethodOD:
		de = ca.CoarsestDecomposition(opt.RankCap)
	case MethodHP:
		de = ca.PairDecomposition()
	case MethodLB:
		de = ca.UnitDecomposition()
	default:
		return nil, fmt.Errorf("core: unknown method %q", opt.Method)
	}
	// The relayed state has no open dims, so the first multiply is the
	// independent outer product — the identical operation whole-path
	// evaluation performs right after its boundary fold. A non-nil
	// start state disables runChain's recycling, so the caller's state
	// (and anything sharing its buffers) stays untouched.
	state, err := h.runChain(ctx, de, in.State.cs, nil)
	if err != nil {
		return nil, err
	}
	return &SegmentResult{
		State:   &ChainState{cs: state},
		UI:      uiOut,
		Factors: len(de.Vars),
		MaxRank: de.MaxRank(),
	}, nil
}

// FilterVariables derives a model holding exactly the trajectory-backed
// variables keep accepts, sharing Variable pointers with the receiver.
// Insertion follows ForEachVariable's deterministic order and rows are
// re-sorted the way the model loader does, so a filtered model
// serializes byte-stably. CoveredEdges is recomputed from the kept
// rank-1 variables; EdgesWithData (a property of the training data,
// not the variable set) carries over.
func (h *HybridGraph) FilterVariables(keep func(*Variable) bool) *HybridGraph {
	out := &HybridGraph{
		G:         h.G,
		Params:    h.Params,
		vars:      make(map[string]*pathVars),
		unit:      make([]*pathVars, h.G.NumEdges()),
		byStart:   make([][]*pathVars, h.G.NumEdges()),
		fallbacks: make(map[graph.EdgeID]*Variable),
	}
	out.stats.VariablesByRank = make([]int, len(h.stats.VariablesByRank))
	covered := make(map[graph.EdgeID]bool)
	h.ForEachVariable(func(v *Variable) {
		if !keep(v) {
			return
		}
		out.addVariable(v)
		if v.Rank() == 1 && !v.SpeedLimit {
			covered[v.Path[0]] = true
		}
	})
	sortRows(out)
	out.stats.CoveredEdges = len(covered)
	out.stats.EdgesWithData = h.stats.EdgesWithData
	return out
}

// Filter derives a synopsis holding exactly the entries whose path
// keep accepts, sharing PathStates with the receiver. Used by the
// shard splitter: an entry whose path lies within one region
// references only within-region variables, so it remains resolvable
// against that region's filtered model. Probe counters start fresh.
func (s *SynopsisStore) Filter(keep func(graph.Path) bool) (*SynopsisStore, error) {
	out := newSynopsisStore(s.opt)
	for _, key := range s.keys {
		st := s.entries[key]
		if !keep(st.path) {
			continue
		}
		nbytes, err := synopsisEntryBytes(st)
		if err != nil {
			return nil, err
		}
		out.add(key, st, nbytes)
	}
	return out, nil
}
