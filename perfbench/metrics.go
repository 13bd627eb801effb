package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The lists below
// must match BENCHMARK.json (TestMetricListsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics; every workload reports all
// of them and none is ever 0. The latency tail is printed but not among
// them: on a shared 2-vCPU host it is the host's, not the tier's — ten
// seeds of one build read hot's p95 at 0.26–0.33 ms seven times, 0.5 ms
// once and 1.1–1.4 ms twice, a spread no allowed bound covers. Traced
// runs record it as trace.tail_ms.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"answers_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// perLayer are the traced run's metrics. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"http.transport_ms", "ms"},
	{"server.handler_p50_ms", "ms"},
	{"server.handler_p99_ms", "ms"},
	{"server.served", "count"},
	{"server.shed", "count"},
	{"server.rejected", "count"},
	{"server.capacity_per_s", "1/s"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"core.oi_ms", "ms"},
	{"core.jc_ms", "ms"},
	{"core.mc_ms", "ms"},
	{"core.cells_touched", "count"},
	{"core.factors", "count"},
	{"memo.hit_ratio", "ratio"},
	{"memo.evictions", "count"},
	{"synopsis.hit_ratio", "ratio"},
	{"synopsis.bytes", "bytes"},
	{"planner.convolutions", "count"},
	{"planner.saved_steps", "count"},
	{"planner.shared_nodes", "count"},
	{"shard.legs_per_req", "ratio"},
	{"shard.leg_p50_ms", "ms"},
	{"shard.leg_p99_ms", "ms"},
	{"shard.coord_self_ms", "ms"},
	{"shard.hedges", "count"},
	{"shard.call_failures", "count"},
	{"ingest.req_p50_ms", "ms"},
	{"ingest.matched_ratio", "ratio"},
	{"ingest.traj_per_s", "1/s"},
	{"mapmatch.us_per_traj", "us"},
	{"wal.appends", "count"},
	{"wal.bytes_per_traj", "bytes"},
	{"wal.append_ms", "ms"},
	{"epoch.publish_s", "s"},
	{"epoch.publishes", "count"},
	{"epoch.rebuilt_vars", "count"},
	{"epoch.synopsis_carried", "count"},
	{"epoch.freshness_s", "s"},
	{"gc.cycles", "count"},
	{"gc.pause_total_ms", "ms"},
	{"accuracy.kl_mean", "nats"},
	{"accuracy.kl_median", "nats"},
	{"trace.p50_ms", "ms"},
	{"trace.tail_ms", "ms"},
	{"trace.answers_per_s", "1/s"},
	{"workload.repeat_share", "ratio"},
	{"workload.prefix_states", "count"},
	{"workload.prefix_states_per_memo", "ratio"},
	{"workload.cross_region_share", "ratio"},
	{"workload.kl_eligible_share", "ratio"},
}

// chunkedTail is the median, over k consecutive equal chunks of xs (in
// send order), of each chunk's pct-quantile, with k as large as possible
// up to 8 while every chunk keeps at least ten samples beyond the
// quantile. A stall of the shared host that spoils one chunk's tail
// moves the median little; a slower tier moves every chunk.
func chunkedTail(xs []float64, pct float64) (value float64, k int) {
	k = min(8, int(float64(len(xs))*(1-pct)/10))
	if k < 1 {
		return quantile(xs, pct), 1
	}
	tails := make([]float64, k)
	for i := range tails {
		tails[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], pct)
	}
	return median(tails), k
}

// tailPct is the latency percentile each workload reports as tail_ms.
// Fleet's 16-entry batches give a few hundred samples a run, too few
// for a p99 with ten samples beyond it. Hot's p99 lands in the ~1% of
// its 0.2 ms cache hits that a GC cycle or a host scheduling stall
// delays: over six seeds of one build it read 1.1–2.1 ms even as the
// median of chunks.
var tailPct = map[string]float64{"hot": 0.95, "cold": 0.99, "fleet": 0.95, "ingest": 0.99}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	compared int // answers compared with a direct evaluation
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail is the p99 of xs when at least ten samples lie beyond it, else
// the highest nearest-rank percentile that still has ten beyond it,
// reported with the percentile actually used.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	pct = 0.99
	if float64(n)*(1-pct) < 10 {
		pct = math.Max(0.5, 1-10/float64(n))
	}
	return quantile(xs, pct), pct
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
