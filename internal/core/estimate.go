package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/hist"
)

// asMulti lifts a variable's distribution to a Multi so rank-1 and
// rank-k factors share one representation in the evaluators. Histogram
// support gaps become zero-mass cells. The conversion is cached on the
// variable (it is hit once per query otherwise).
func asMulti(v *Variable) (*hist.Multi, error) {
	if v.Joint != nil {
		return v.Joint, nil
	}
	v.multiOnce.Do(func() {
		v.multi, v.multiErr = histToMulti(v.Hist)
	})
	return v.multi, v.multiErr
}

func histToMulti(hg *hist.Histogram) (*hist.Multi, error) {
	bs := hg.Buckets()
	cuts := make([]float64, 0, 2*len(bs))
	for _, b := range bs {
		cuts = append(cuts, b.Lo, b.Hi)
	}
	sort.Float64s(cuts)
	bounds := cuts[:1]
	for _, c := range cuts[1:] {
		if c != bounds[len(bounds)-1] {
			bounds = append(bounds, c)
		}
	}
	m, err := hist.NewMulti([][]float64{bounds})
	if err != nil {
		return nil, err
	}
	for _, b := range bs {
		i := sort.SearchFloat64s(bounds, b.Lo)
		m.SetCell([]int{i}, b.Pr)
	}
	if err := m.Normalize(); err != nil {
		return nil, err
	}
	return m, nil
}

// chainState is the running joint during Equation 2 evaluation: a
// Multi whose dimension 0 is the accumulated cost of all already
// folded (finished) edges, and whose remaining dimensions are the
// still-open edges, identified by their positions in the query path.
type chainState struct {
	m    *hist.Multi
	open []int // query positions of dims 1..; ascending
}

// EvalStats instruments the Figure 17 breakdown: time is measured by
// the caller; the evaluator reports structural counts.
type EvalStats struct {
	Factors       int           // number of decomposition paths applied (JC work)
	CellsTouched  int           // hyper-bucket operations during joint computation
	ResultBuckets int           // buckets of the final marginal (MC output)
	MCDur         time.Duration // time spent deriving the marginal (Fig. 17's MC)

	// mcStart is the instant the chain finished and marginalization
	// began. evaluateMode records it and leaves MCDur unset; callers
	// finalize MCDur against their own end-of-evaluation clock read,
	// sparing the hot path one time.Now per query.
	mcStart time.Time
}

// evalScratch is the arena of one chain step: flat contiguous buffers
// for the merge-join emission (packed keys + probabilities), the
// pre-shifted factor keys, the factor group runs, the fold arena and
// the fold-distribution emission log. Pooled so steady-state
// evaluation reuses warm buffers instead of allocating per
// multiply/fold call; the inner loops stream through these arrays
// sequentially. Result histograms copy out of the scratch before it
// returns to the pool; nothing pooled escapes.
type evalScratch struct {
	keys    []hist.PackedKey
	probs   []float64
	fs      []hist.PackedKey // factor keys pre-shifted to state dims
	bounds  [][]float64
	runs    []factorRun
	folds   []cellFold
	foldIdx []int
	keepIdx []int
	ivals   []hist.Bucket
}

// boundsScratch returns the scratch's bounds slice resized to n with
// nil elements.
func (sc *evalScratch) boundsScratch(n int) [][]float64 {
	if cap(sc.bounds) < n {
		sc.bounds = make([][]float64, n)
	} else {
		sc.bounds = sc.bounds[:n]
	}
	return sc.bounds
}

// accSeedBounds is the zero-width accumulator axis every chain starts
// from; shared and immutable.
var accSeedBounds = []float64{0, 1e-9}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// factorRun is one overlap group of the aligned factor: the contiguous
// run of factor cells sharing the first nOv dimension indices (the
// conditioning tuple), plus the group's probability mass — the Eq. 2
// denominator, summed in storage order so it is bit-identical to the
// overlap marginal the map-based kernel derived.
type factorRun struct {
	start, end int
	div        float64
}

// Evaluate computes the estimated cost distribution of the query path
// from a decomposition, per Equation 2 followed by the Section 4.2
// marginalization: factors are applied left to right; before each new
// factor the state keeps open exactly the overlap edges (conditioning
// set), everything else being folded into the accumulated-cost
// dimension.
func (h *HybridGraph) Evaluate(de *Decomposition, query graph.Path) (*hist.Histogram, EvalStats, error) {
	out, st, err := h.evaluateMode(context.Background(), de, query)
	st.finalizeMC()
	return out, st, err
}

// finalizeMC stamps MCDur from the recorded marginalization start.
func (st *EvalStats) finalizeMC() {
	if !st.mcStart.IsZero() {
		st.MCDur = time.Since(st.mcStart)
	}
}

func (h *HybridGraph) evaluateMode(ctx context.Context, de *Decomposition, query graph.Path) (*hist.Histogram, EvalStats, error) {
	var st EvalStats
	if err := de.Validate(query); err != nil {
		return nil, st, err
	}
	st.Factors = len(de.Vars)

	// Single factor covering the whole query: its sum distribution is
	// the answer (the "lucky" case of Section 4.1).
	if len(de.Vars) == 1 {
		v := de.Vars[0]
		var out *hist.Histogram
		st.mcStart = time.Now()
		if v.Hist != nil {
			out = v.Hist
		} else {
			var err error
			out, err = v.Joint.SumHistogram(h.Params.MaxResultBuckets)
			if err != nil {
				return nil, st, err
			}
		}
		st.ResultBuckets = out.NumBuckets()
		return out, st, nil
	}

	state, err := h.runChain(ctx, de, nil, &st)
	if err != nil {
		return nil, st, err
	}
	st.mcStart = time.Now()
	out, err := state.m.SumHistogram(h.Params.MaxResultBuckets)
	// The chain belonged to this evaluation alone (runChain recycled
	// every intermediate state); the final state dies here too.
	hist.PutMulti(state.m)
	if err != nil {
		return nil, st, err
	}
	st.ResultBuckets = out.NumBuckets()
	return out, st, nil
}

// runChain applies every decomposition factor, starting from state
// (nil to start fresh), and returns the final folded state. ctx bounds
// the chain: its deadline is checked before each factor multiply, so a
// long evaluation stops burning CPU within one factor of the caller's
// budget expiring.
func (h *HybridGraph) runChain(ctx context.Context, de *Decomposition, state *chainState, st *EvalStats) (*chainState, error) {
	// A fresh chain owns every state it creates, each dead as soon as
	// the next exists — recycle their histograms. A caller-supplied
	// start state (a relayed segment state) must stay untouched.
	recycle := state == nil
	for i := range de.Vars {
		if err := ctx.Err(); err != nil {
			if recycle && state != nil {
				hist.PutMulti(state.m)
			}
			return nil, err
		}
		v := de.Vars[i]
		fm, err := asMulti(v)
		if err != nil {
			return nil, err
		}
		positions := factorPositions(de, i)
		prev := state
		if state == nil {
			state, err = initialState(fm, positions)
		} else {
			state, err = state.multiply(fm, positions, st)
		}
		if err != nil {
			return nil, err
		}
		if recycle && prev != nil {
			hist.PutMulti(prev.m)
		}
		keep := overlapWithNext(de, i)
		folded, err := state.foldTo(keep, h.Params.MaxAccBuckets)
		if err != nil {
			return nil, err
		}
		if recycle {
			hist.PutMulti(state.m)
		}
		state = folded
	}
	return state, nil
}

// factorPositions returns the query positions covered by factor i.
func factorPositions(de *Decomposition, i int) []int {
	positions := make([]int, de.Vars[i].Rank())
	for j := range positions {
		positions[j] = de.Pos[i] + j
	}
	return positions
}

// overlapWithNext returns the positions of factor i that the next
// factor also covers (empty for the last factor).
func overlapWithNext(de *Decomposition, i int) []int {
	if i+1 >= len(de.Vars) {
		return nil
	}
	var keep []int
	end := de.Pos[i] + de.Vars[i].Rank()
	for q := de.Pos[i+1]; q < end; q++ {
		keep = append(keep, q)
	}
	return keep
}

// initialState wraps a factor as a chain state with a zero-width
// accumulator and all factor dims open. The factor's sorted cells map
// to state cells by prepending the accumulator index 0, which keeps
// them sorted, so the state is built columnar in one pass.
func initialState(fm *hist.Multi, positions []int) (*chainState, error) {
	dims := fm.Dims()
	if 1+dims > hist.MaxDims {
		return nil, fmt.Errorf("hist: %d dimensions out of range [1,%d]", 1+dims, hist.MaxDims)
	}
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	bounds := sc.boundsScratch(1 + dims)
	bounds[0] = accSeedBounds
	for d := 0; d < dims; d++ {
		bounds[1+d] = fm.Bounds(d)
	}
	fKeys, fProbs := fm.Cells()
	keys := sc.keys[:0]
	probs := sc.probs[:0]
	for i, k := range fKeys {
		if fProbs[i] == 0 {
			continue
		}
		// Prepend the accumulator axis: dims shift up one, dim 0 = 0.
		// The shift is order-preserving, so the cells stay sorted.
		keys = append(keys, k.ShiftDimRight())
		probs = append(probs, fProbs[i])
	}
	sc.keys, sc.probs = keys, probs
	m, err := hist.NewMultiFromPackedCells(bounds, keys, probs)
	if err != nil {
		return nil, err
	}
	return &chainState{m: m, open: positions}, nil
}

// multiply advances the chain by one factor: the state's open dims
// must be a prefix of the factor's positions (its overlap); the result
// has all factor dims open. With an empty overlap this is the
// independent outer product.
//
// The kernel is a merge-join over the two sorted cell arrays: the
// aligned factor's cells group into contiguous runs by their overlap
// prefix (with each run's mass — the Eq. 2 denominator — summed in
// storage order), each state cell binary-searches its run, and the
// emitted product cells come out already in sorted order, so the
// result is assembled columnar with no group maps, no hashing and no
// per-cell closures. All float operations replicate the map-based
// kernel's sequence exactly, so results are bit-identical to it.
//
// multiply never mutates the receiver: chain states are shared — a DFS
// parent is extended along many siblings, and the convolution memo
// hands one state to concurrent queries — so the remapped views below
// must stay local. (A receiver write here would also make results
// depend on sibling evaluation order, breaking the memo-on/memo-off
// byte-identity guarantee.)
func (s *chainState) multiply(fm *hist.Multi, positions []int, st *EvalStats) (*chainState, error) {
	overlap := s.open
	ovIdxF := indexOf(positions, overlap)
	if len(ovIdxF) != len(overlap) {
		return nil, fmt.Errorf("core: state open dims %v not contained in factor positions %v", overlap, positions)
	}
	for i, fd := range ovIdxF {
		if fd != i {
			// Chain evaluation always overlaps on a leading prefix of
			// the factor (overlaps are path prefixes; the property and
			// planner fuzz tests assert it for every production
			// decomposition). The run grouping below would mis-join any
			// other shape, so refuse it.
			return nil, fmt.Errorf("core: state open dims %v are not a leading prefix of factor positions %v", overlap, positions)
		}
	}
	if 1+fm.Dims() > hist.MaxDims {
		return nil, fmt.Errorf("hist: %d dimensions out of range [1,%d]", 1+fm.Dims(), hist.MaxDims)
	}

	// Align overlap dimensions on a shared grid. The two sides may
	// disagree about the cost support (they come from different
	// trajectory sets), so a union remap — not a refinement — is
	// required for cell indices to be comparable. The union and the
	// translation tables are derived once per dimension; when the
	// supports already agree (the common case) the remap is the
	// identity and the histograms pass through untouched.
	sm := s.m
	fmAligned := fm
	var err error
	for i := range overlap {
		sd, fd := 1+i, i
		union := hist.UnionBounds(sm.Bounds(sd), fmAligned.Bounds(fd))
		prevS, prevF := sm, fmAligned
		sm, err = sm.RemapDim(sd, union)
		if err != nil {
			return nil, err
		}
		if prevS != s.m && prevS != sm {
			hist.PutMulti(prevS) // intermediate alignment view, now dead
		}
		fmAligned, err = fmAligned.RemapDim(fd, union)
		if err != nil {
			return nil, err
		}
		if prevF != fm && prevF != fmAligned {
			hist.PutMulti(prevF)
		}
	}

	fKeys, fProbs := fmAligned.Cells()
	sKeys, sProbs := sm.Cells()
	nOv := len(overlap)
	dims := fmAligned.Dims()

	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)

	// Group the aligned factor's cells into contiguous overlap runs.
	runs := sc.runs[:0]
	for i := 0; i < len(fKeys); {
		j := i + 1
		for j < len(fKeys) && fKeys[i].PrefixEq(fKeys[j], nOv) {
			j++
		}
		var div float64
		if nOv == 0 {
			// No conditioning: the independent outer product divides by
			// nothing (the run covers every factor cell).
			div = 1
		} else {
			for c := i; c < j; c++ {
				div += fProbs[c]
			}
		}
		runs = append(runs, factorRun{start: i, end: j, div: div})
		i = j
	}
	sc.runs = runs

	// Pre-shift every factor key to its state position (dims move up
	// one; dim 0 is free for the accumulator index) once, so the inner
	// emission loop is a single masked word-merge per cell instead of a
	// per-dimension scatter.
	fs := sc.fs
	if cap(fs) < len(fKeys) {
		fs = make([]hist.PackedKey, len(fKeys))
	} else {
		fs = fs[:len(fKeys)]
	}
	for i, k := range fKeys {
		fs[i] = k.ShiftDimRight()
	}
	sc.fs = fs

	// Merge-join: state cells are sorted by (acc, overlap...), runs by
	// overlap, and each emitted product key (acc, factor dims...) is
	// strictly larger than its predecessor — the result arrays are born
	// sorted.
	resKeys := sc.keys[:0]
	resProbs := sc.probs[:0]
	for ci, sk := range sKeys {
		spr := sProbs[ci]
		run, ok := findRun(fKeys, runs, sk.ShiftDimLeft(), nOv)
		if !ok {
			// The factor assigns zero probability to this overlap
			// region; the state mass there is dropped (renormalized
			// later), mirroring conditioning on a measure-zero event.
			continue
		}
		if nOv > 0 && run.div <= 0 {
			continue
		}
		if st != nil {
			st.CellsTouched += run.end - run.start
		}
		for c := run.start; c < run.end; c++ {
			v := spr * fProbs[c] / run.div
			if v == 0 {
				// The map-based kernel's SetCell dropped exact zeros.
				continue
			}
			resKeys = append(resKeys, fs[c].WithDim0From(sk))
			resProbs = append(resProbs, v)
		}
	}
	sc.keys, sc.probs = resKeys, resProbs

	// Result dims: acc + all factor dims (in factor order).
	bounds := sc.boundsScratch(1 + dims)
	bounds[0] = sm.Bounds(0)
	for d := 0; d < dims; d++ {
		bounds[1+d] = fmAligned.Bounds(d)
	}
	res, err := hist.NewMultiFromPackedCells(bounds, resKeys, resProbs)
	// The remapped alignment views die here; their buffers recycle.
	// (res copied the cells and shares only their per-dim boundary
	// slices, which PutMulti leaves alone.)
	if sm != s.m {
		hist.PutMulti(sm)
	}
	if fmAligned != fm {
		hist.PutMulti(fmAligned)
	}
	if err != nil {
		return nil, err
	}
	if err := res.Normalize(); err != nil {
		return nil, err
	}
	return &chainState{m: res, open: positions}, nil
}

// findRun binary-searches the factor run whose overlap prefix matches
// the state cell's open dims. skShift is the state key shifted down one
// dimension (the accumulator dropped), so its leading nOv dims line up
// with the factor keys' and the comparisons are masked word compares.
func findRun(fKeys []hist.PackedKey, runs []factorRun, skShift hist.PackedKey, nOv int) (factorRun, bool) {
	if len(runs) == 0 {
		return factorRun{}, false
	}
	if nOv == 0 {
		return runs[0], true
	}
	lo, hi := 0, len(runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fKeys[runs[mid].start].PrefixLess(skShift, nOv) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(runs) && fKeys[runs[lo].start].PrefixEq(skShift, nOv) {
		return runs[lo], true
	}
	return factorRun{}, false
}

// foldTo folds all open dims except keep into the accumulator and
// re-buckets the accumulator axis to at most maxAcc buckets.
func (s *chainState) foldTo(keep []int, maxAcc int) (*chainState, error) {
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	// State-dim indexes of the kept positions (dim 0 is the acc).
	keepIdx := sc.keepIdx[:0]
	for _, q := range keep {
		found := false
		for j, p := range s.open {
			if p == q {
				keepIdx = append(keepIdx, 1+j)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: keep position %d not open (open: %v)", q, s.open)
		}
	}
	sc.keepIdx = keepIdx
	folds, nKept, err := foldCellsInto(sc, s.m, keepIdx)
	if err != nil {
		return nil, err
	}
	m, err := assembleState(sc, s.m, folds, nKept, keepIdx, maxAcc)
	if err != nil {
		return nil, err
	}
	return &chainState{m: m, open: keep}, nil
}

// indexOf maps query positions to dim indexes within a factor.
func indexOf(positions, subset []int) []int {
	var out []int
	for _, q := range subset {
		for j, p := range positions {
			if p == q {
				out = append(out, j)
				break
			}
		}
	}
	return out
}

// cellFold is one folded cell: the accumulated-cost interval, the
// kept-dim indexes (in keep order) and the probability.
type cellFold struct {
	lo, hi float64
	idx    []int
	pr     float64
}

// foldCells folds a Multi's non-kept dims into accumulated-cost
// intervals (an existing accumulator dim, when present, is simply not
// listed in keepIdx and its bucket bounds join the interval sums).
// The columnar scan runs in storage order — sorted cell-key order —
// which keeps the fold order, and therefore the float accumulation
// downstream in accCuts/distributeFolds, reproducible.
func foldCells(m *hist.Multi, keepIdx []int) ([]cellFold, int, error) {
	return foldCellsInto(nil, m, keepIdx)
}

// foldCellsInto is foldCells writing into pooled scratch when sc is
// non-nil: the folds slice and the shared index arena come from the
// pool, so a warm fold allocates nothing.
func foldCellsInto(sc *evalScratch, m *hist.Multi, keepIdx []int) ([]cellFold, int, error) {
	keys, probs := m.Cells()
	if len(keys) == 0 {
		return nil, 0, fmt.Errorf("core: folding an empty joint")
	}
	var keep [hist.MaxDims]bool
	for _, d := range keepIdx {
		keep[d] = true
	}
	var folds []cellFold
	var arena []int
	need := len(keys) * len(keepIdx)
	if sc != nil {
		if cap(sc.folds) < len(keys) {
			sc.folds = make([]cellFold, 0, len(keys))
		}
		if cap(sc.foldIdx) < need {
			sc.foldIdx = make([]int, 0, need)
		}
		folds, arena = sc.folds[:0], sc.foldIdx[:0]
	} else {
		folds = make([]cellFold, 0, len(keys))
		arena = make([]int, 0, need)
	}
	// arena has full capacity up front so the idx sub-slices below
	// never dangle on growth.
	dims := m.Dims()
	for i, k := range keys {
		var lo, hi float64
		for d := 0; d < dims; d++ {
			if keep[d] {
				continue
			}
			l, u := m.BucketRange(d, int(k.Dim(d)))
			lo += l
			hi += u
		}
		base := len(arena)
		for _, d := range keepIdx {
			arena = append(arena, int(k.Dim(d)))
		}
		folds = append(folds, cellFold{lo: lo, hi: hi, idx: arena[base:len(arena):len(arena)], pr: probs[i]})
	}
	if sc != nil {
		sc.folds, sc.foldIdx = folds, arena
	}
	return folds, len(keepIdx), nil
}

// assembleState builds the state Multi (dim 0 = acc, then kept dims of
// src in keepIdx order) from folded cells, re-bucketing the acc axis
// to at most maxAcc buckets.
func assembleState(sc *evalScratch, src *hist.Multi, folds []cellFold, nKept int, keepIdx []int, maxAcc int) (*hist.Multi, error) {
	cuts, err := accCuts(sc, folds, maxAcc)
	if err != nil {
		return nil, err
	}
	bounds := sc.boundsScratch(1 + nKept)
	bounds[0] = cuts
	for i, d := range keepIdx {
		bounds[1+i] = src.Bounds(d)
	}
	keys, probs := distributeFoldsInto(sc, folds, cuts)
	out, err := hist.NewMultiFromPackedCells(bounds, keys, probs)
	if err != nil {
		return nil, err
	}
	if err := out.Normalize(); err != nil {
		return nil, err
	}
	return out, nil
}

// accCuts derives the accumulated-cost bucket boundaries: the exact
// interval endpoints when few, otherwise the boundaries of the
// compressed exact marginal. hist.RearrangedCuts keeps the whole
// rearrangement pooled; only the returned boundary slice — which
// becomes the state's accumulator axis — is allocated.
func accCuts(sc *evalScratch, folds []cellFold, maxAcc int) ([]float64, error) {
	var ivals []hist.Bucket
	if sc != nil {
		if cap(sc.ivals) < len(folds) {
			sc.ivals = make([]hist.Bucket, 0, len(folds))
		}
		ivals = sc.ivals[:len(folds)]
		sc.ivals = ivals
	} else {
		ivals = make([]hist.Bucket, len(folds))
	}
	for i, f := range folds {
		hi := f.hi
		if !(hi > f.lo) {
			hi = f.lo + 1e-9 // degenerate (point) accumulations
		}
		ivals[i] = hist.Bucket{Lo: f.lo, Hi: hi, Pr: f.pr}
	}
	return hist.RearrangedCuts(ivals, maxAcc)
}

// distributeFoldsInto spreads each folded cell's mass across the acc
// slabs proportionally to overlap (uniform-within-interval, the
// Section 4.2 rule) and returns the resulting sorted cell arrays,
// owned by the scratch.
//
// Accumulation happens immediately per emission — the same order as
// the reference path's out.AddCell, so the per-cell float sums are
// identical — but into flat local packed-key/probability arrays
// instead of a Multi: appends and in-place accruals are word compares
// on packed keys, the binary search on out-of-order emissions is a
// handful of word compares, and there is no per-emission marginal
// invalidation. Within one fold the emitted keys strictly ascend
// (only the slab index varies), so the tail fast paths absorb most
// emissions.
func distributeFoldsInto(sc *evalScratch, folds []cellFold, cuts []float64) ([]hist.PackedKey, []float64) {
	keys := sc.keys[:0]
	probs := sc.probs[:0]
	for _, f := range folds {
		lo, hi := f.lo, f.hi
		if !(hi > lo) {
			hi = lo + 1e-9
		}
		w := hi - lo
		// Kept-dim indexes are fixed per fold; only dim 0 varies.
		var base hist.PackedKey
		for j, v := range f.idx {
			base = base.WithDim(1+j, uint16(v))
		}
		s := sort.SearchFloat64s(cuts, lo)
		if s > 0 {
			s--
		}
		for ; s+1 < len(cuts); s++ {
			if cuts[s] >= hi {
				break
			}
			ol := math.Min(cuts[s+1], hi) - math.Max(cuts[s], lo)
			if ol <= 0 {
				continue
			}
			add := f.pr * ol / w
			if add == 0 {
				// Matches the map kernel: Cell+SetCell with a zero delta
				// never materialized an absent cell.
				continue
			}
			key := base.WithDim(0, uint16(s))
			n := len(keys)
			switch {
			case n == 0 || keys[n-1].Less(key):
				keys = append(keys, key)
				probs = append(probs, add)
			case keys[n-1] == key:
				probs[n-1] += add
			default:
				// Out-of-order emission: binary search, accrue or insert.
				i := sort.Search(n, func(i int) bool { return !keys[i].Less(key) })
				if keys[i] == key {
					probs[i] += add
				} else {
					keys = append(keys, hist.PackedKey{})
					probs = append(probs, 0)
					copy(keys[i+1:], keys[i:])
					copy(probs[i+1:], probs[i:])
					keys[i] = key
					probs[i] = add
				}
			}
		}
	}
	sc.keys, sc.probs = keys, probs
	return keys, probs
}

// distributeFoldsRef is the reference fold distribution — the same
// slab walk accumulating through Multi.AddCell immediately. It is the
// differential oracle for distributeFoldsInto (see
// TestDistributeFoldsMatchesReference); the float sequence per cell is
// identical by construction.
func distributeFoldsRef(out *hist.Multi, folds []cellFold, cuts []float64) {
	var idxArr [hist.MaxDims]int
	idxBuf := idxArr[:out.Dims()]
	for _, f := range folds {
		lo, hi := f.lo, f.hi
		if !(hi > lo) {
			hi = lo + 1e-9
		}
		w := hi - lo
		s := sort.SearchFloat64s(cuts, lo)
		if s > 0 {
			s--
		}
		for ; s+1 < len(cuts); s++ {
			if cuts[s] >= hi {
				break
			}
			ol := math.Min(cuts[s+1], hi) - math.Max(cuts[s], lo)
			if ol <= 0 {
				continue
			}
			add := f.pr * ol / w
			if add == 0 {
				continue
			}
			idxBuf[0] = s
			copy(idxBuf[1:], f.idx)
			out.AddCell(idxBuf, add)
		}
	}
}

// EvaluateDense materializes the full joint of Equation 2 on the
// common refinement grid and flattens it. Exponential in the query
// cardinality — a reference implementation used by tests and small
// queries to validate the chain evaluator.
func (h *HybridGraph) EvaluateDense(de *Decomposition, query graph.Path) (*hist.Histogram, error) {
	if err := de.Validate(query); err != nil {
		return nil, err
	}
	n := len(query)
	if n > 10 {
		return nil, fmt.Errorf("core: dense evaluation limited to 10 edges, got %d", n)
	}
	factorMs := make([]*hist.Multi, len(de.Vars))
	for i, v := range de.Vars {
		fm, err := asMulti(v)
		if err != nil {
			return nil, err
		}
		factorMs[i] = fm
	}
	// Remap every factor dimension onto the union grid of all factors
	// sharing the position, so cell indices agree across factors.
	for pos := 0; pos < n; pos++ {
		union := []float64(nil)
		for i, v := range de.Vars {
			d := pos - de.Pos[i]
			if d >= 0 && d < v.Rank() {
				union = hist.UnionBounds(union, factorMs[i].Bounds(d))
			}
		}
		for i, v := range de.Vars {
			d := pos - de.Pos[i]
			if d >= 0 && d < v.Rank() {
				var err error
				factorMs[i], err = factorMs[i].RemapDim(d, union)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	// Overlap marginals (denominators of Eq. 2).
	margs := make([]*hist.Multi, len(de.Vars)) // margs[i]: overlap of factor i with i−1
	for i := 1; i < len(de.Vars); i++ {
		prevEnd := de.Pos[i-1] + de.Vars[i-1].Rank() // exclusive
		var ovIdx []int
		for d := 0; d < de.Vars[i].Rank(); d++ {
			if de.Pos[i]+d < prevEnd {
				ovIdx = append(ovIdx, d)
			}
		}
		if len(ovIdx) > 0 {
			m, err := factorMs[i].MarginalOnto(ovIdx)
			if err != nil {
				return nil, err
			}
			margs[i] = m
		}
	}
	// Grid sizes per position (identical across factors after remap).
	gridBounds := make([][]float64, n)
	for pos := 0; pos < n; pos++ {
		for i, v := range de.Vars {
			d := pos - de.Pos[i]
			if d >= 0 && d < v.Rank() {
				gridBounds[pos] = factorMs[i].Bounds(d)
				break
			}
		}
	}
	// Enumerate the full grid.
	counts := make([]int, n)
	total := 1
	for pos := range counts {
		counts[pos] = len(gridBounds[pos]) - 1
		total *= counts[pos]
		if total > 2_000_000 {
			return nil, fmt.Errorf("core: dense grid too large")
		}
	}
	idx := make([]int, n)
	var ivals []hist.Bucket
	var advance func(int) bool
	advance = func(pos int) bool {
		idx[pos]++
		if idx[pos] < counts[pos] {
			return true
		}
		idx[pos] = 0
		if pos+1 < n {
			return advance(pos + 1)
		}
		return false
	}
	fIdx := make([]int, hist.MaxDims)
	for {
		pr := 1.0
		for i, v := range de.Vars {
			m := factorMs[i]
			nd := v.Rank()
			for d := 0; d < nd; d++ {
				fIdx[d] = idx[de.Pos[i]+d]
			}
			pr *= m.Cell(fIdx[:nd])
			if pr == 0 {
				break
			}
			if margs[i] != nil {
				nOv := margs[i].Dims()
				for d := 0; d < nOv; d++ {
					fIdx[d] = idx[de.Pos[i]+d]
				}
				den := margs[i].Cell(fIdx[:nOv])
				if den <= 0 {
					pr = 0
					break
				}
				pr /= den
			}
		}
		if pr > 0 {
			var lo, hi float64
			for pos := 0; pos < n; pos++ {
				lo += gridBounds[pos][idx[pos]]
				hi += gridBounds[pos][idx[pos]+1]
			}
			ivals = append(ivals, hist.Bucket{Lo: lo, Hi: hi, Pr: pr})
		}
		if !advance(0) {
			break
		}
	}
	if len(ivals) == 0 {
		return nil, fmt.Errorf("core: dense evaluation produced no mass")
	}
	return hist.Rearranged(ivals)
}
