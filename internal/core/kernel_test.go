package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/hist"
)

// Differential tests for the merge-join convolution kernel: multiply's
// columnar merge-join must reproduce the retained map-based reference
// kernel (multiplyRef) bit for bit — same cells, same probabilities,
// same stats — across random factor pairs, overlap widths and support
// mismatches.

// randomFactor builds a normalized random joint with the given rank
// whose supports may differ between calls (forcing union remaps).
func randomFactor(rnd *rand.Rand, rank int) *hist.Multi {
	bounds := make([][]float64, rank)
	for d := range bounds {
		n := 2 + rnd.Intn(4)
		bd := make([]float64, n)
		bd[0] = float64(rnd.Intn(3)) * 2.5
		for i := 1; i < n; i++ {
			bd[i] = bd[i-1] + 0.5 + float64(rnd.Intn(6))*1.25
		}
		bounds[d] = bd
	}
	m, err := hist.NewMulti(bounds)
	if err != nil {
		panic(err)
	}
	idx := make([]int, rank)
	cells := 1 + rnd.Intn(10)
	for c := 0; c < cells; c++ {
		for d := range idx {
			idx[d] = rnd.Intn(m.NumBuckets(d))
		}
		m.SetCell(idx, m.Cell(idx)+0.02+rnd.Float64())
	}
	if err := m.Normalize(); err != nil {
		panic(err)
	}
	return m
}

func sameMultiBits(tb testing.TB, a, b *hist.Multi) {
	tb.Helper()
	ka, pa := a.Cells()
	kb, pb := b.Cells()
	if len(ka) != len(kb) {
		tb.Fatalf("cell counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			tb.Fatalf("cell %d key differs: %v vs %v", i, ka[i], kb[i])
		}
		if math.Float64bits(pa[i]) != math.Float64bits(pb[i]) {
			tb.Fatalf("cell %d probability differs at the bit level: %x vs %x",
				i, math.Float64bits(pa[i]), math.Float64bits(pb[i]))
		}
	}
	if a.Dims() != b.Dims() {
		tb.Fatalf("dims differ: %d vs %d", a.Dims(), b.Dims())
	}
	for d := 0; d < a.Dims(); d++ {
		ba, bb := a.Bounds(d), b.Bounds(d)
		if len(ba) != len(bb) {
			tb.Fatalf("dim %d bounds length differ", d)
		}
		for i := range ba {
			if math.Float64bits(ba[i]) != math.Float64bits(bb[i]) {
				tb.Fatalf("dim %d bound %d differs", d, i)
			}
		}
	}
}

// INVARIANT: merge-join multiply ≡ reference multiply, bit for bit,
// for every overlap width the chain evaluator produces (0 = outer
// product, up to rank−1 conditioning dims).
func TestMultiplyMatchesReferenceKernel(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		rankA := 1 + rnd.Intn(3)
		rankB := 1 + rnd.Intn(3)
		overlap := rnd.Intn(minInt(rankA, rankB) + 1)
		if overlap >= rankB {
			overlap = rankB - 1
		}
		fa := randomFactor(rnd, rankA)
		fb := randomFactor(rnd, rankB)

		posA := make([]int, rankA)
		for i := range posA {
			posA[i] = i
		}
		st0, err := initialState(fa, posA)
		if err != nil {
			t.Fatal(err)
		}
		// Fold to the overlap: factor B starts at rankA-overlap.
		keep := make([]int, 0, overlap)
		posB := make([]int, rankB)
		for i := range posB {
			posB[i] = rankA - overlap + i
		}
		for q := rankA - overlap; q < rankA; q++ {
			keep = append(keep, q)
		}
		folded, err := st0.foldTo(keep, 16)
		if err != nil {
			t.Fatal(err)
		}

		var stFast, stRef EvalStats
		fast, errFast := folded.multiply(fb, posB, &stFast)
		ref, errRef := folded.multiplyRef(fb, posB, &stRef)
		if (errFast == nil) != (errRef == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, errFast, errRef)
		}
		if errFast != nil {
			continue // both kernels rejected (e.g. all mass conditioned away)
		}
		sameMultiBits(t, fast.m, ref.m)
		if stFast.CellsTouched != stRef.CellsTouched {
			t.Fatalf("trial %d: CellsTouched %d vs %d", trial, stFast.CellsTouched, stRef.CellsTouched)
		}
		if !sameInts(fast.open, ref.open) {
			t.Fatalf("trial %d: open dims %v vs %v", trial, fast.open, ref.open)
		}
	}
}

// A non-prefix overlap (impossible in chain evaluation, where overlaps
// are path prefixes — see checkPrefixOverlaps) is refused with an
// error rather than mis-joined.
func TestMultiplyNonPrefixOverlapFallsBack(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	fa := randomFactor(rnd, 1)
	fb := randomFactor(rnd, 2)
	st0, err := initialState(fa, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	folded, err := st0.foldTo([]int{1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Factor covers positions {0,1}; the state's open dim 1 maps to
	// factor dim 1, not 0 — a non-prefix overlap.
	if res, err := folded.multiply(fb, []int{0, 1}, nil); err == nil {
		t.Fatalf("non-prefix overlap multiplied silently: open %v", res.open)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// multiplyRef is the pre-columnar reference kernel: group maps and
// per-cell dispatch over the same float sequence as multiply. It is
// the differential oracle multiply is compared against bit for bit.
func (s *chainState) multiplyRef(fm *hist.Multi, positions []int, st *EvalStats) (*chainState, error) {
	overlap := s.open
	ovIdxF := indexOf(positions, overlap)
	if len(ovIdxF) != len(overlap) {
		return nil, fmt.Errorf("core: state open dims %v not contained in factor positions %v", overlap, positions)
	}

	sm := s.m
	fmAligned := fm
	var err error
	for i := range overlap {
		sd := 1 + i // state dim (open dims are ordered and contiguous)
		fd := ovIdxF[i]
		union := hist.UnionBounds(sm.Bounds(sd), fmAligned.Bounds(fd))
		sm, err = sm.RemapDim(sd, union)
		if err != nil {
			return nil, err
		}
		fmAligned, err = fmAligned.RemapDim(fd, union)
		if err != nil {
			return nil, err
		}
	}
	var marg *hist.Multi
	if len(overlap) > 0 {
		marg, err = fmAligned.MarginalOnto(ovIdxF)
		if err != nil {
			return nil, err
		}
	}

	// Group factor cells by overlap index tuple (a single group when
	// the overlap is empty).
	type fcell struct {
		key hist.CellKey
		pr  float64
	}
	groups := make(map[hist.CellKey][]fcell)
	fmAligned.ForEach(func(k hist.CellKey, pr float64) {
		var gk hist.CellKey
		for i, fd := range ovIdxF {
			gk[i] = k[fd]
		}
		groups[gk] = append(groups[gk], fcell{key: k, pr: pr})
	})

	// Result dims: acc + all factor dims (in factor order).
	bounds := make([][]float64, 1+fmAligned.Dims())
	bounds[0] = sm.Bounds(0)
	for d := 0; d < fmAligned.Dims(); d++ {
		bounds[1+d] = fmAligned.Bounds(d)
	}
	res, err := hist.NewMulti(bounds)
	if err != nil {
		return nil, err
	}
	idxBuf := make([]int, 1+fmAligned.Dims())
	mi := make([]int, len(overlap))
	sm.ForEach(func(sk hist.CellKey, spr float64) {
		var gk hist.CellKey
		for i := range overlap {
			gk[i] = sk[1+i]
		}
		cells := groups[gk]
		if len(cells) == 0 {
			return
		}
		div := 1.0
		if marg != nil {
			for i := range overlap {
				mi[i] = int(gk[i])
			}
			div = marg.Cell(mi)
			if div <= 0 {
				return
			}
		}
		for _, fc := range cells {
			idxBuf[0] = int(sk[0])
			for d := 0; d < fmAligned.Dims(); d++ {
				idxBuf[1+d] = int(fc.key[d])
			}
			if st != nil {
				st.CellsTouched++
			}
			res.SetCell(idxBuf, res.Cell(idxBuf)+spr*fc.pr/div)
		}
	})
	if err := res.Normalize(); err != nil {
		return nil, err
	}
	return &chainState{m: res, open: positions}, nil
}
