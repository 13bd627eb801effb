package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wal"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     Size
	scratch  string    // WAL and span files
	log      io.Writer // human-readable report
}

// publish is one PublishEpoch call of the ingest workload.
type publish struct {
	start, end time.Time
	st         pathcost.EpochStats
	err        error
}

// phase is what one timed phase produced.
type phase struct {
	reads     []sample // latency-bearing requests: distributions, or batches on fleet
	elapsed   time.Duration
	answers   []answer           // the sampled answers, kept for the direct comparison and KL
	attempted int                // operations: distribution answers asked for, ingest batches, publishes
	warm      []query            // sent before the timed phase
	sent      []query            // sent in the timed phase, in stream order
	before    map[string]float64 // server counters at the start of the timed phase

	ingest    []sample
	publishes []publish
	heapMB    float64
	gcCycles  uint32
	gcPauseNs uint64
}

// run executes one benchmark run and returns its result line.
func run(ctx context.Context, rc runConfig) (res *result, err error) {
	in, err := genInputs(rc.workload, rc.size, rc.seed, rc.seconds)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	if rc.trace {
		rec = newRecorder()
		in.eligible = eligibility(in.params, in.train, in.queries())
	}
	t, setups, err := setUp(rc.workload, in, rec, rc.scratch)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS := median(setups)
	fmt.Fprintf(rc.log, "set-up times %.4g s, setup_s is their median\n", setups)
	if rc.workload == "fleet" && !rc.trace {
		// Only the traced run's accuracy report reads the training
		// trips again; the shards were loaded without them, so holding
		// them would count benchmark memory in heap_mb.
		in.train = nil
	}
	defer func() {
		if serr := t.stop(); serr != nil && err == nil {
			res, err = nil, fmt.Errorf("stopping the tier: %w", serr)
		}
	}()
	runtime.GC()

	chk := newChecker(in.params, rc.log)
	var ph *phase
	switch rc.workload {
	case "hot":
		ph, err = runHot(ctx, rc, in, t, rec, chk)
	case "cold":
		ph, err = runCold(ctx, rc, in, t, rec, chk)
	case "fleet":
		ph, err = runFleet(ctx, rc, in, t, rec, chk)
	case "ingest":
		ph, err = runIngest(ctx, rc, in, t, rec, chk)
	}
	if err != nil {
		return nil, err
	}
	for _, a := range ph.answers {
		var ref *core.HybridGraph // nil: an ingest read raced a publish, its epoch is unknown
		if a.ep != nil {
			ref = a.ep.Hybrid
		}
		chk.check(a, ref)
	}
	if chk.compared == 0 {
		chk.fail(nil, "no answer was compared with a direct evaluation (%d kept, %d skipped)", len(ph.answers), chk.skipped)
	}

	lat := make([]float64, 0, len(ph.reads))
	for _, s := range ph.reads {
		lat = append(lat, ms(s.latency()))
	}
	pct := tailPct[rc.workload]
	tailMS, chunks := chunkedTail(lat, pct)
	e2e := map[string]float64{
		"setup_s":       setupS,
		"p50_ms":        median(lat),
		"answers_per_s": float64(answered(ph.reads)) / ph.elapsed.Seconds(),
		"heap_mb":       ph.heapMB,
	}
	props := workloadProps(in, t, ph)

	res = &result{Attempted: ph.attempted, Failed: chk.failed, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	res.compared = chk.compared
	fmt.Fprintf(rc.log, "workload %s seed %d: %d operations, %d failed (fail_ratio %.4g), %d answers compared with direct evaluation, %d skipped (a publish raced them)\n",
		rc.workload, rc.seed, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), chk.compared, chk.skipped)
	fmt.Fprintf(rc.log, "latency samples %d, tail_ms is the median p%g of %d chunks\n", len(lat), 100*pct, chunks)
	if beyond := float64(len(lat)) * (1 - pct); beyond < 10 {
		fmt.Fprintf(rc.log, "perfbench: WARNING only %.0f samples beyond p%g; tail_ms is not supported by this run\n", beyond, 100*pct)
	}

	if !rc.trace {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: e2e[d.name], Unit: d.unit}
		}
		printMetrics(rc.log, "end-to-end", endToEnd, res.Metrics)
		fmt.Fprintf(rc.log, "%-32s %14.6g ms (not gated)\n", "tail_ms", tailMS)
		printMetrics(rc.log, "workload properties", nil, props)
		return res, nil
	}

	layers, err := traceMetrics(ctx, rc, in, t, rec, ph)
	if err != nil {
		return nil, err
	}
	data := in.train
	if rc.workload == "ingest" {
		data = t.sys.Data() // the last epoch's trajectories
	}
	layers["accuracy.kl_mean"], layers["accuracy.kl_median"] = klStats(in.params, data, in.eligible, ph.answers)
	layers["workload.kl_eligible_share"] = eligibleShare(in.eligible, ph.sent)
	layers["trace.p50_ms"] = e2e["p50_ms"]
	layers["trace.tail_ms"] = tailMS
	layers["trace.answers_per_s"] = e2e["answers_per_s"]
	for k, v := range props {
		layers[k] = v.Value
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: layers[d.name] + 0, Unit: d.unit} // + 0 turns -0 into 0
	}
	printMetrics(rc.log, "per-layer (traced run)", perLayer, res.Metrics)
	return res, nil
}

func printMetrics(w io.Writer, title string, defs []metricDef, ms map[string]metric) {
	fmt.Fprintf(w, "-- %s\n", title)
	if defs == nil {
		for k := range ms {
			defs = append(defs, metricDef{name: k})
		}
		sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	}
	for _, d := range defs {
		m := ms[d.name]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, m.Value, m.Unit)
	}
}

// measured runs fn as the timed phase, recording the live heap averaged
// over it (sampled every 10 ms: the heap the latest GC cycle marked
// live, which excludes garbage whose amount depends on when collections
// happen to run; the average, because the series steps only at each GC
// and a median or peak would read a single step) and counting GC work
// across it.
func measured(ph *phase, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var live []float64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			live = append(live, float64(sample[0].Value.Uint64())/(1<<20))
			select {
			case <-stop:
				done <- live
				return
			case <-tick.C:
			}
		}
	}()
	fn()
	close(stop)
	ph.heapMB = mean(<-done)
	runtime.ReadMemStats(&after)
	ph.gcCycles = after.NumGC - before.NumGC
	ph.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
}

// answered counts the distribution answers that passed validation.
func answered(reads []sample) int {
	n := 0
	for _, s := range reads {
		n += s.Valid
	}
	return n
}

// snapshot records the tier's server counters before the timed phase.
func (ph *phase) snapshot(ctx context.Context, t *tier) error {
	c := newClient(1, nil)
	defer c.close()
	var err error
	ph.before, err = counters(ctx, c, t.frontURLs())
	return err
}

// digest decodes and validates a reply as soon as it arrives — a
// /v1/distribution answer (entries = 1) or a /v1/batch answer — and
// drops the body, keeping only the decoded entries keep selects for
// the later checks. Holding every body would make the benchmark's own
// memory grow with throughput and swamp heap_mb.
func digest(s *sample, entries int, keep func(j int) bool) {
	body := s.Body
	s.Body = nil
	s.Kept = make([]*api.DistributionResponse, entries)
	failAll := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		for j := 0; j < entries; j++ {
			s.Problems = append(s.Problems, problem{j, msg})
		}
	}
	if s.Err != nil || s.Status != 200 {
		failAll("status %d, %v: %s", s.Status, s.Err, strings.TrimSpace(string(body)))
		return
	}
	var results []*api.DistributionResponse
	if entries == 1 {
		var d api.DistributionResponse
		if err := json.Unmarshal(body, &d); err != nil {
			failAll("undecodable answer: %v", err)
			return
		}
		results = []*api.DistributionResponse{&d}
	} else {
		var b api.BatchResponse
		if err := json.Unmarshal(body, &b); err != nil || len(b.Results) != entries {
			failAll("undecodable batch answer (%v)", err)
			return
		}
		for j, r := range b.Results {
			if r.Status != 200 || r.Distribution == nil {
				s.Problems = append(s.Problems, problem{j, fmt.Sprintf("entry status %d: %s", r.Status, r.Error)})
			}
			results = append(results, r.Distribution)
		}
	}
	for j, d := range results {
		if d == nil {
			continue
		}
		if _, err := histogramOf(d); err != nil {
			s.Problems = append(s.Problems, problem{j, "invalid distribution: " + err.Error()})
			continue
		}
		s.Valid++
		if keep(j) {
			s.Kept[j] = d
		}
	}
}

// collect turns digested replies into the phase's answers and
// failures; queries maps a reply's stream index to its entries.
func (ph *phase) collect(chk *checker, ss []sample, queries func(i int) []query, ep func(s sample) *pathcost.ModelEpoch) {
	for _, s := range ss {
		qs := queries(s.Index)
		ph.sent = append(ph.sent, qs...)
		ph.attempted += len(qs)
		for _, p := range s.Problems {
			chk.fail(&qs[p.entry], "%s", p.msg)
		}
		for j, d := range s.Kept {
			if d != nil {
				ph.answers = append(ph.answers, answer{q: qs[j], resp: d, ep: ep(s)})
			}
		}
	}
}

// warm sends every key once, so the timed phase starts with the keys
// in the query cache.
func warm(ctx context.Context, c *client, url string, keys []query, bodies [][]byte) error {
	for i, q := range keys {
		s := c.post(ctx, url, "warm", bodies[i])
		if s.Err != nil || s.Status != 200 {
			return fmt.Errorf("warming %v: status %d, %v", q.Path, s.Status, s.Err)
		}
	}
	return nil
}

func bodiesOf(qs []query) [][]byte {
	out := make([][]byte, len(qs))
	for i, q := range qs {
		out[i] = q.body()
	}
	return out
}

// runHot: open loop at HotRate over two connections, Zipf-skewed over
// warmed keys.
func runHot(ctx context.Context, rc runConfig, in *inputs, t *tier, rec *recorder, chk *checker) (*phase, error) {
	c := newClient(2, rec)
	defer c.close()
	url := t.url + "/v1/distribution"
	bodies := bodiesOf(in.hotKeys)
	if err := warm(ctx, c, url, in.hotKeys, bodies); err != nil {
		return nil, err
	}
	rec.take()
	ph := &phase{warm: in.hotKeys}
	if err := ph.snapshot(ctx, t); err != nil {
		return nil, err
	}
	measured(ph, func() {
		ph.reads = openLoop(ctx, in.size.HotRate, len(in.hotSeq), 2, func(i int) sample {
			s := c.post(ctx, url, "client", bodies[in.hotSeq[i]])
			digest(&s, 1, func(int) bool { return in.keep(rc.seed, i, in.hotKeys[in.hotSeq[i]]) })
			return s
		})
	})
	ph.elapsed = openSpan(ph.reads)
	ph.collect(chk, ph.reads, func(i int) []query { return []query{in.hotKeys[in.hotSeq[i]]} },
		func(sample) *pathcost.ModelEpoch { return t.base })
	return ph, nil
}

// openSpan is an open loop's span from the first due time to the last
// completion.
func openSpan(ss []sample) time.Duration {
	if len(ss) == 0 {
		return time.Nanosecond
	}
	first, last := ss[0].Due, ss[0].End
	for _, s := range ss {
		if s.Due.Before(first) {
			first = s.Due
		}
		if s.End.After(last) {
			last = s.End
		}
	}
	return last.Sub(first)
}

// runCold: closed loop, two clients, each request a distinct held-out
// sub-path at its own departure time.
func runCold(ctx context.Context, rc runConfig, in *inputs, t *tier, rec *recorder, chk *checker) (*phase, error) {
	if len(in.cold) == 0 {
		return nil, fmt.Errorf("cold: no held-out queries generated")
	}
	c := newClient(2, rec)
	defer c.close()
	url := t.url + "/v1/distribution"
	bodies := bodiesOf(in.cold)
	ph := &phase{}
	if err := ph.snapshot(ctx, t); err != nil {
		return nil, err
	}
	d := time.Duration(rc.seconds * float64(time.Second))
	start := time.Now()
	measured(ph, func() {
		ph.reads = closedLoop(ctx, 2, d, func(i int) sample {
			s := c.post(ctx, url, "client", bodies[i%len(bodies)])
			digest(&s, 1, func(int) bool { return in.keep(rc.seed, i, in.cold[i%len(in.cold)]) })
			return s
		})
	})
	ph.elapsed = time.Since(start)
	sort.Slice(ph.reads, func(i, j int) bool { return ph.reads[i].Index < ph.reads[j].Index })
	ph.collect(chk, ph.reads, func(i int) []query { return []query{in.cold[i%len(in.cold)]} },
		func(sample) *pathcost.ModelEpoch { return t.base })
	return ph, nil
}

func batchBody(qs []query) []byte {
	req := api.BatchRequest{Queries: make([]api.BatchQuery, len(qs))}
	for i, q := range qs {
		req.Queries[i] = api.BatchQuery{Kind: "distribution", Path: api.EdgeIDs(q.Path), Depart: q.Depart}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// runFleet: closed loop, two clients, /v1/batch through the coordinator
// of a 3-way sharded fleet; answers are checked against the unsplit
// union model.
func runFleet(ctx context.Context, rc runConfig, in *inputs, t *tier, rec *recorder, chk *checker) (*phase, error) {
	if len(in.fleet) == 0 {
		return nil, fmt.Errorf("fleet: no batches generated")
	}
	c := newClient(2, rec)
	defer c.close()
	url := t.url + "/v1/batch"
	bodies := make([][]byte, len(in.fleet))
	for i, b := range in.fleet {
		bodies[i] = batchBody(b)
	}
	ph := &phase{}
	if err := ph.snapshot(ctx, t); err != nil {
		return nil, err
	}
	d := time.Duration(rc.seconds * float64(time.Second))
	start := time.Now()
	per := in.size.FleetBatch
	measured(ph, func() {
		ph.reads = closedLoop(ctx, 2, d, func(i int) sample {
			s := c.post(ctx, url, "client", bodies[i%len(bodies)])
			digest(&s, per, func(j int) bool { return in.keep(rc.seed, i*per+j, in.fleet[i%len(in.fleet)][j]) })
			return s
		})
	})
	ph.elapsed = time.Since(start)
	if err := t.loadUnion(in.g); err != nil {
		return nil, err
	}
	sort.Slice(ph.reads, func(i, j int) bool { return ph.reads[i].Index < ph.reads[j].Index })
	ph.collect(chk, ph.reads, func(i int) []query { return in.fleet[i%len(in.fleet)] },
		func(sample) *pathcost.ModelEpoch { return t.base })
	return ph, nil
}

// ingestAck is the part of a /v1/ingest reply the benchmark reads.
type ingestAck struct {
	Staged int `json:"staged"`
}

// runIngest: open-loop raw-GPS ingest batches on one connection, the
// hot read stream on another, and PublishEpoch on a fixed cadence.
func runIngest(ctx context.Context, rc runConfig, in *inputs, t *tier, rec *recorder, chk *checker) (*phase, error) {
	reads, ingest := newClient(1, rec), newClient(1, rec)
	defer reads.close()
	defer ingest.close()
	url := t.url + "/v1/distribution"
	bodies := bodiesOf(in.hotKeys)
	if err := warm(ctx, reads, url, in.hotKeys, bodies); err != nil {
		return nil, err
	}
	ingestBodies := make([][]byte, len(in.ingest))
	for i, b := range in.ingest {
		ingestBodies[i] = ingestBody(b)
	}
	rec.take()
	ph := &phase{warm: in.hotKeys}
	eps := make([]*pathcost.ModelEpoch, len(in.hotSeq))
	sys := t.sys
	if err := ph.snapshot(ctx, t); err != nil {
		return nil, err
	}
	measured(ph, func() {
		loadDone := make(chan struct{})
		var pubWG sync.WaitGroup
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			ph.publishes = publisher(sys, in.size.Publish, loadDone)
		}()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			ph.reads = openLoop(ctx, in.size.ReadRate, len(in.hotSeq), 1, func(i int) sample {
				ep := sys.CurrentEpoch()
				s := reads.post(ctx, url, "client", bodies[in.hotSeq[i]])
				if sys.CurrentEpoch() == ep {
					eps[i] = ep // no publish raced the request: ep answered it
				}
				digest(&s, 1, func(int) bool { return in.keep(rc.seed, i, in.hotKeys[in.hotSeq[i]]) })
				return s
			})
		}()
		go func() {
			defer wg.Done()
			ph.ingest = openLoop(ctx, in.size.IngestRate, len(ingestBodies), 1, func(i int) sample {
				return ingest.post(ctx, t.url+"/v1/ingest", "ingest", ingestBodies[i])
			})
		}()
		wg.Wait()
		close(loadDone)
		pubWG.Wait()
	})
	ph.elapsed = openSpan(ph.reads)
	ph.collect(chk, ph.reads, func(i int) []query { return []query{in.hotKeys[in.hotSeq[i]]} },
		func(s sample) *pathcost.ModelEpoch { return eps[s.Index] })
	for _, s := range ph.ingest {
		ph.attempted++
		var ack ingestAck
		switch {
		case s.Err != nil || s.Status != 200:
			chk.fail(nil, "ingest batch %d: status %d, %v: %s", s.Index, s.Status, s.Err, strings.TrimSpace(string(s.Body)))
		case json.Unmarshal(s.Body, &ack) != nil:
			chk.fail(nil, "ingest batch %d: undecodable ack", s.Index)
		}
	}
	for _, p := range ph.publishes {
		ph.attempted++
		if p.err != nil {
			chk.fail(nil, "epoch publish at %v: %v", p.start, p.err)
		}
	}
	return ph, nil
}

// publisher calls PublishEpoch every interval while anything is
// staged, the way pathcostd's epoch loop does; once loadDone is closed
// it publishes what is still staged and returns.
func publisher(sys *pathcost.System, interval time.Duration, loadDone <-chan struct{}) []publish {
	var out []publish
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		final := false
		select {
		case <-loadDone:
			final = true
		case <-tick.C:
		}
		if sys.StagedCount() > 0 {
			p := publish{start: time.Now()}
			p.st, p.err = sys.PublishEpoch()
			p.end = time.Now()
			out = append(out, p)
		}
		if final {
			return out
		}
	}
}

// freshness is, over acknowledged trajectories, the median time from
// the ack to the return of the PublishEpoch that folded it in. Ingest
// runs on one connection, so batches stage in ack order, and a publish
// folds every batch staged before it starts.
func freshness(acks []sample, pubs []publish) float64 {
	sort.Slice(acks, func(i, j int) bool { return acks[i].Index < acks[j].Index })
	var folded []int // cumulative trajectories folded after each publish
	total := 0
	for _, p := range pubs {
		total += p.st.LastTrajs
		folded = append(folded, total)
	}
	var waits []float64
	staged := 0
	for _, s := range acks {
		var ack ingestAck
		if s.Status != 200 || json.Unmarshal(s.Body, &ack) != nil || ack.Staged == 0 {
			continue
		}
		staged += ack.Staged
		k := sort.SearchInts(folded, staged)
		if k == len(folded) {
			continue
		}
		w := pubs[k].end.Sub(s.End).Seconds()
		for j := 0; j < ack.Staged; j++ {
			waits = append(waits, w)
		}
	}
	return median(waits)
}

// workloadProps measures the input properties later claims cite,
// over the queries the timed phase sent (warm-up counts as history).
func workloadProps(in *inputs, t *tier, ph *phase) map[string]metric {
	part := t.part
	if part == nil {
		part, _ = shard.NewPartition(in.g, regions, in.params)
	}
	seen := map[string]bool{}
	for _, q := range ph.warm {
		seen[cacheKey(in.params, q)] = true
	}
	states := map[string]bool{}
	repeats, cross := 0, 0
	for _, q := range ph.sent {
		k := cacheKey(in.params, q)
		if seen[k] {
			repeats++
		}
		seen[k] = true
		if _, one := part.PathInRegion(in.g, q.Path); !one {
			cross++
		}
		for j := 1; j <= len(q.Path); j++ {
			states[fmt.Sprintf("%s@%v", q.Path[:j].Key(), q.Depart)] = true
		}
	}
	n := float64(len(ph.sent))
	return map[string]metric{
		"workload.repeat_share":           {ratio(float64(repeats), n), "ratio"},
		"workload.prefix_states":          {float64(len(states)), "count"},
		"workload.prefix_states_per_memo": {float64(len(states)) / memoCap, "ratio"},
		"workload.cross_region_share":     {ratio(float64(cross), n), "ratio"},
	}
}

// eligibleShare is the share of distinct sent queries the accuracy
// baseline applies to.
func eligibleShare(el eligible, sent []query) float64 {
	seen := map[string]bool{}
	n := 0
	for _, q := range sent {
		if k := exactKey(q); !seen[k] {
			seen[k] = true
			if el[k] {
				n++
			}
		}
	}
	return ratio(float64(n), float64(len(seen)))
}

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	Cache    *cacheStats `json:"cache"`
	Memo     *cacheStats `json:"memo"`
	Synopsis *struct {
		Bytes  int    `json:"bytes"`
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"synopsis"`
	Planner *struct {
		Convolutions int `json:"convolutions"`
		SavedSteps   int `json:"saved_steps"`
		SharedNodes  int `json:"shared_nodes"`
	} `json:"planner"`
	Ingest *struct {
		Received int64 `json:"received"`
		Matched  int64 `json:"matched"`
		Staged   int64 `json:"staged"`
	} `json:"ingest"`
	WAL *struct {
		Bytes   int64  `json:"bytes"`
		Appends uint64 `json:"appends"`
	} `json:"wal"`
	Served   uint64 `json:"served"`
	Rejected uint64 `json:"rejected"`
	Shed     uint64 `json:"shed"`
}

type cacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// counters flattens the stats of one or more servers into summed
// counters.
func counters(ctx context.Context, c *client, urls []string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range urls {
		b, err := c.get(ctx, u+"/v1/stats")
		if err != nil {
			return nil, err
		}
		var st serverStats
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, fmt.Errorf("decoding %s/v1/stats: %w", u, err)
		}
		add := func(k string, v float64) { out[k] += v }
		add("served", float64(st.Served))
		add("rejected", float64(st.Rejected))
		add("shed", float64(st.Shed))
		if st.Cache != nil {
			add("cache.hits", float64(st.Cache.Hits))
			add("cache.misses", float64(st.Cache.Misses))
			add("cache.evictions", float64(st.Cache.Evictions))
		}
		if st.Memo != nil {
			add("memo.hits", float64(st.Memo.Hits))
			add("memo.misses", float64(st.Memo.Misses))
			add("memo.evictions", float64(st.Memo.Evictions))
		}
		if st.Synopsis != nil {
			add("synopsis.hits", float64(st.Synopsis.Hits))
			add("synopsis.misses", float64(st.Synopsis.Misses))
			add("synopsis.bytes", float64(st.Synopsis.Bytes))
		}
		if st.Planner != nil {
			add("planner.convolutions", float64(st.Planner.Convolutions))
			add("planner.saved_steps", float64(st.Planner.SavedSteps))
			add("planner.shared_nodes", float64(st.Planner.SharedNodes))
		}
		if st.Ingest != nil {
			add("ingest.received", float64(st.Ingest.Received))
			add("ingest.matched", float64(st.Ingest.Matched))
			add("ingest.staged", float64(st.Ingest.Staged))
		}
		if st.WAL != nil {
			add("wal.bytes", float64(st.WAL.Bytes))
			add("wal.appends", float64(st.WAL.Appends))
		}
	}
	return out, nil
}

// coordCounters reads the coordinator's hedge and failed-leg counts.
func coordCounters(ctx context.Context, c *client, url string) (hedges, callFailures float64, err error) {
	b, err := c.get(ctx, url+"/v1/stats")
	if err != nil {
		return 0, 0, err
	}
	var st struct {
		Hedges uint64 `json:"hedges"`
		Shards []struct {
			Replicas []struct {
				CallFailures uint64 `json:"call_failures"`
			} `json:"replicas"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return 0, 0, err
	}
	for _, s := range st.Shards {
		for _, r := range s.Replicas {
			callFailures += float64(r.CallFailures)
		}
	}
	return float64(st.Hedges), callFailures, nil
}

// traceMetrics derives the per-layer metrics of a traced run: span
// statistics of the timed phase, server counters, and the exact work
// counters of a fixed query prefix evaluated directly.
func traceMetrics(ctx context.Context, rc runConfig, in *inputs, t *tier, rec *recorder, ph *phase) (map[string]float64, error) {
	spans := rec.take()
	out := map[string]float64{}

	idx := make(map[uint64]span, len(spans))
	for _, s := range spans {
		idx[s.ID] = s
	}
	self := selfTimes(spans)
	var transport, handler, legs, coordSelf, ingestReq []float64
	clients := 0
	for _, s := range spans {
		switch s.Name {
		case "client":
			clients++
			transport = append(transport, ms(self[s.ID]))
		case "ingest":
			ingestReq = append(ingestReq, ms(s.dur()))
		case "server", "coordinator":
			if p, ok := idx[s.Parent]; ok && p.Name == "client" {
				handler = append(handler, ms(s.dur()))
			}
			if s.Name == "coordinator" {
				coordSelf = append(coordSelf, ms(self[s.ID]))
			}
		case "shard":
			legs = append(legs, ms(s.dur()))
		}
	}
	out["http.transport_ms"] = median(transport)
	out["server.handler_p50_ms"] = median(handler)
	out["server.handler_p99_ms"], _ = tail(handler)
	out["shard.legs_per_req"] = ratio(float64(len(legs)), float64(clients))
	out["shard.leg_p50_ms"] = median(legs)
	out["shard.leg_p99_ms"], _ = tail(legs)
	out["shard.coord_self_ms"] = median(coordSelf)
	out["ingest.req_p50_ms"] = median(ingestReq)

	var late []float64
	for _, s := range ph.reads {
		late = append(late, ms(s.late()))
	}
	for _, s := range ph.ingest {
		late = append(late, ms(s.late()))
	}
	if rc.workload == "hot" || rc.workload == "ingest" {
		out["loadgen.late_p99_ms"], _ = tail(late)
	}
	out["loadgen.sent"] = float64(len(ph.reads) + len(ph.ingest))
	out["gc.cycles"] = float64(ph.gcCycles)
	out["gc.pause_total_ms"] = float64(ph.gcPauseNs) / 1e6

	c := newClient(1, nil)
	defer c.close()
	st, err := counters(ctx, c, t.frontURLs())
	if err != nil {
		return nil, err
	}
	for k, v := range ph.before {
		st[k] -= v
	}
	if v, ok := ph.before["synopsis.bytes"]; ok {
		st["synopsis.bytes"] += v // a size, not a counter
	}
	out["server.served"] = st["served"]
	out["server.shed"] = st["shed"]
	out["server.rejected"] = st["rejected"]
	out["cache.hit_ratio"] = ratio(st["cache.hits"], st["cache.hits"]+st["cache.misses"])
	out["cache.evictions"] = st["cache.evictions"]
	out["memo.hit_ratio"] = ratio(st["memo.hits"], st["memo.hits"]+st["memo.misses"])
	out["memo.evictions"] = st["memo.evictions"]
	out["synopsis.hit_ratio"] = ratio(st["synopsis.hits"], st["synopsis.hits"]+st["synopsis.misses"])
	out["synopsis.bytes"] = st["synopsis.bytes"]
	if t.part != nil {
		out["shard.hedges"], out["shard.call_failures"], err = coordCounters(ctx, c, t.url)
		if err != nil {
			return nil, err
		}
	}

	if rc.workload == "ingest" {
		ingestMetrics(out, st, ph)
		if err := shadowIngest(out, rc, in, rec); err != nil {
			return nil, err
		}
	}

	// Exact counters: a fixed prefix of the workload's queries,
	// evaluated directly on the model the tier booted with.
	ref := t.base.Hybrid
	var qs []query
	switch rc.workload {
	case "hot", "ingest":
		qs = in.hotKeys
	case "cold":
		qs = in.cold
	case "fleet":
		for _, b := range in.fleet {
			qs = append(qs, b...)
		}
	}
	shadowCore(out, ref, qs[:min(len(qs), in.size.Counted)], rec)
	if rc.workload == "fleet" {
		if err := plannerPass(ctx, out, in, t); err != nil {
			return nil, err
		}
	}
	if rc.workload == "hot" {
		if out["server.capacity_per_s"], err = capacity(ctx, in, t); err != nil {
			return nil, err
		}
	}
	if err := writeSpans(filepath.Join(rc.scratch, fmt.Sprintf("spans-%s-%d.jsonl", rc.workload, rc.seed)), append(spans, rec.take()...)); err != nil {
		return nil, err
	}
	return out, nil
}

// ingestMetrics fills the ingest, WAL and epoch rows from the server
// counters and the publisher's record.
func ingestMetrics(out, st map[string]float64, ph *phase) {
	out["ingest.matched_ratio"] = ratio(st["ingest.matched"], st["ingest.received"])
	out["ingest.traj_per_s"] = st["ingest.staged"] / openSpan(ph.ingest).Seconds()
	out["wal.appends"] = st["wal.appends"]
	out["wal.bytes_per_traj"] = ratio(st["wal.bytes"], st["ingest.staged"])
	var pub []float64
	for _, p := range ph.publishes {
		pub = append(pub, p.end.Sub(p.start).Seconds())
		out["epoch.rebuilt_vars"] += float64(p.st.LastRebuiltVars)
		out["epoch.synopsis_carried"] += float64(p.st.SynopsisCarried)
	}
	out["epoch.publishes"] = float64(len(ph.publishes))
	out["epoch.publish_s"] = median(pub)
	out["epoch.freshness_s"] = freshness(ph.ingest, ph.publishes)
}

// shadowIngest times the map matcher and the WAL append on the run's
// first ingest batches, called directly from outside the server.
func shadowIngest(out map[string]float64, rc runConfig, in *inputs, rec *recorder) error {
	dir, err := os.MkdirTemp(rc.scratch, "wal-shadow-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer l.Close()
	var matchDur, appendDur time.Duration
	trajs, appends := 0, 0
	for _, batch := range in.ingest[:min(len(in.ingest), 16)] {
		start := time.Now()
		coll, _, err := pathcost.MatchTrajectories(in.g, batch, pathcost.MatcherConfig{Workers: runtime.NumCPU()})
		end := time.Now()
		rec.add(rec.newID(), 0, 0, "mapmatch", start, end)
		matchDur += end.Sub(start)
		trajs += len(batch)
		if err != nil || coll.Len() == 0 {
			continue
		}
		matched := make([]*pathcost.Matched, coll.Len())
		for i := range matched {
			matched[i] = coll.Traj(i)
		}
		start = time.Now()
		if _, err := l.Append(matched); err != nil {
			return fmt.Errorf("shadow WAL append: %w", err)
		}
		end = time.Now()
		rec.add(rec.newID(), 0, 0, "wal.append", start, end)
		appendDur += end.Sub(start)
		appends++
	}
	out["mapmatch.us_per_traj"] = ratio(float64(matchDur.Microseconds()), float64(trajs))
	out["wal.append_ms"] = ratio(ms(appendDur), float64(appends))
	return nil
}

// shadowCore evaluates qs directly — decomposition (OI), chain joins
// (JC) and marginal (MC) timed separately, as in the paper's Fig. 17 —
// and records the exact work counters.
func shadowCore(out map[string]float64, h *core.HybridGraph, qs []query, rec *recorder) {
	var oi, jc, mc time.Duration
	n := 0
	for _, q := range qs {
		id := rec.newID()
		t0 := time.Now()
		ca, err := h.BuildCandidateArray(q.Path, q.Depart)
		if err != nil {
			continue
		}
		de := ca.CoarsestDecomposition(0)
		t1 := time.Now()
		_, st, err := h.Evaluate(de, q.Path)
		t2 := time.Now()
		ca.Release()
		if err != nil {
			continue
		}
		rec.add(rec.newID(), id, 0, "core.oi", t0, t1)
		rec.add(rec.newID(), id, 0, "core.jc", t1, t2.Add(-st.MCDur))
		rec.add(rec.newID(), id, 0, "core.mc", t2.Add(-st.MCDur), t2)
		rec.add(id, 0, 0, "core.query", t0, t2)
		oi += t1.Sub(t0)
		mc += st.MCDur
		jc += t2.Sub(t1) - st.MCDur
		out["core.cells_touched"] += float64(st.CellsTouched)
		out["core.factors"] += float64(st.Factors)
		n++
	}
	out["core.oi_ms"] = ratio(ms(oi), float64(n))
	out["core.jc_ms"] = ratio(ms(jc), float64(n))
	out["core.mc_ms"] = ratio(ms(mc), float64(n))
}

// plannerPass resets the shards' caches, memos and planner counters,
// sends the first Counted entries' batches one at a time, and reads the
// planner counters back: a fixed, sequential workload, so the counts
// repeat exactly for a seed.
func plannerPass(ctx context.Context, out map[string]float64, in *inputs, t *tier) error {
	for _, s := range t.shards {
		enableDaemonDefaults(s)
	}
	c := newClient(1, nil)
	defer c.close()
	entries := 0
	for _, b := range in.fleet {
		if entries >= in.size.Counted {
			break
		}
		entries += len(b)
		s := c.post(ctx, t.url+"/v1/batch", "planner", batchBody(b))
		if s.Err != nil || s.Status != 200 {
			return fmt.Errorf("planner pass: status %d, %v", s.Status, s.Err)
		}
	}
	st, err := counters(ctx, c, t.shardURL)
	if err != nil {
		return err
	}
	out["planner.convolutions"] = st["planner.convolutions"]
	out["planner.saved_steps"] = st["planner.saved_steps"]
	out["planner.shared_nodes"] = st["planner.shared_nodes"]
	return nil
}

// capacityProbe is how long capacity drives the hot keys.
const capacityProbe = 2 * time.Second

// capacity is the hot tier's saturation throughput: the hot stream's
// keys sent back to back by two closed-loop clients, answers per
// second. It runs after the server counters are read, so it changes no
// other metric; the server's span middleware stays on. The open loop's
// rate is a share of this figure.
func capacity(ctx context.Context, in *inputs, t *tier) (float64, error) {
	c := newClient(2, nil)
	defer c.close()
	url := t.url + "/v1/distribution"
	bodies := bodiesOf(in.hotKeys)
	start := time.Now()
	ss := closedLoop(ctx, 2, capacityProbe, func(i int) sample {
		s := c.post(ctx, url, "capacity", bodies[in.hotSeq[i%len(in.hotSeq)]])
		digest(&s, 1, func(int) bool { return false })
		return s
	})
	elapsed := time.Since(start)
	for _, s := range ss {
		if len(s.Problems) > 0 {
			return 0, fmt.Errorf("capacity probe: %s", s.Problems[0].msg)
		}
	}
	return float64(answered(ss)) / elapsed.Seconds(), nil
}
