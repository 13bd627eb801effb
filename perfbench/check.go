package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/hist"
	"repro/internal/stats"
)

// answer is one served distribution, tied to the query it answers and,
// when known, the model epoch that produced it.
type answer struct {
	q    query
	resp *api.DistributionResponse
	ep   *pathcost.ModelEpoch // nil when a publish raced the request
}

// checker validates answers. Every answer must be a normalized
// histogram (mass 1 ± 1e-9, ordered non-overlapping buckets); sampled
// answers must also equal, byte for byte with eval_us zeroed, the
// payload a direct HybridGraph.CostDistribution on the same epoch
// yields. Every failure counts and is printed with its query.
type checker struct {
	params   pathcost.Params
	log      io.Writer
	failed   int
	compared int
	skipped  int               // sampled answers whose epoch is unknown
	expect   map[string][]byte // (epoch, query) → expected payload
}

func newChecker(params pathcost.Params, log io.Writer) *checker {
	return &checker{params: params, log: log, expect: map[string][]byte{}}
}

// fail counts one failed operation and prints why.
func (c *checker) fail(q *query, format string, args ...any) {
	c.failed++
	if c.failed <= 20 {
		where := ""
		if q != nil {
			where = fmt.Sprintf(" [path %v depart %v]", q.Path, q.Depart)
		}
		fmt.Fprintf(c.log, "perfbench: FAIL %s%s\n", fmt.Sprintf(format, args...), where)
	} else if c.failed == 21 {
		fmt.Fprintln(c.log, "perfbench: further failures not printed")
	}
}

// sampled picks a seeded 1-in-every subset of a request stream.
func sampled(seed int64, i, every int) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", seed, i)
	return every <= 1 || h.Sum64()%uint64(every) == 0
}

// histogramOf validates a served distribution and returns it.
func histogramOf(d *api.DistributionResponse) (*hist.Histogram, error) {
	bs := make([]hist.Bucket, len(d.Buckets))
	for i, b := range d.Buckets {
		bs[i] = hist.Bucket{Lo: b.Lo, Hi: b.Hi, Pr: b.Pr}
	}
	return hist.FromBucketsExact(bs, 1e-9)
}

// payload is the wire form of a distribution with eval_us zeroed: the
// only field that legitimately differs between two evaluations.
func payload(d api.DistributionResponse) []byte {
	d.EvalUS = 0
	b, err := json.Marshal(d)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return b
}

// direct evaluates q on h the way a server's cache miss does.
func direct(h *core.HybridGraph, params pathcost.Params, q query) ([]byte, error) {
	res, err := h.CostDistribution(q.Path, q.Depart, core.QueryOptions{Method: pathcost.OD})
	if err != nil {
		return nil, err
	}
	return payload(*api.DistributionPayload(string(pathcost.OD), params.IntervalOf(q.Depart), res.Dist,
		0, res.Decomp.Cardinality(), res.Decomp.MaxRank(), 0)), nil
}

// check compares one sampled answer with a direct evaluation on ref:
// the served epoch's model, or the union model for the sharded fleet.
// A nil ref (an ingest read that raced a publish) skips the check.
func (c *checker) check(a answer, ref *core.HybridGraph) {
	if ref == nil {
		c.skipped++
		return
	}
	key := fmt.Sprintf("%p|%s@%v", ref, a.q.Path.Key(), a.q.Depart)
	want, ok := c.expect[key]
	if !ok {
		var err error
		if want, err = direct(ref, c.params, a.q); err != nil {
			c.fail(&a.q, "direct evaluation failed: %v", err)
			return
		}
		c.expect[key] = want
	}
	c.compared++
	if got := payload(*a.resp); !bytes.Equal(got, want) {
		c.fail(&a.q, "answer differs from direct evaluation:\n  served %s\n  direct %s", got, want)
	}
}

// eligible reports, per query, whether the accuracy-optimal baseline
// applies: at least β qualifying trajectories in data.
type eligible map[string]bool

func eligibility(params pathcost.Params, data *pathcost.Collection, qs []query) eligible {
	out := eligible{}
	for _, q := range qs {
		k := exactKey(q)
		if _, done := out[k]; !done {
			_, n, _ := core.GroundTruth(data, q.Path, q.Depart, params)
			out[k] = n >= params.Beta
		}
	}
	return out
}

func exactKey(q query) string { return fmt.Sprintf("%s@%v", q.Path.Key(), q.Depart) }

// klStats is the mean and median KL(ground truth ‖ served) over the
// distinct eligible queries among answers.
func klStats(params pathcost.Params, data *pathcost.Collection, el eligible, answers []answer) (mean_, median_ float64) {
	seen := map[string]bool{}
	var kls []float64
	for _, a := range answers {
		k := exactKey(a.q)
		if seen[k] || !el[k] {
			continue
		}
		seen[k] = true
		gt, _, err := core.GroundTruth(data, a.q.Path, a.q.Depart, params)
		if err != nil {
			continue
		}
		served, err := histogramOf(a.resp)
		if err != nil {
			continue // counted as a failure when the reply arrived
		}
		kls = append(kls, stats.KLHistograms(gt, served))
	}
	return mean(kls), median(kls)
}
