package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	pathcost "repro"
	"repro/internal/api"
	"repro/internal/core"
)

// tinySize is a miniature of benchSize for tests: the test city, a
// short stream, one set-up.
var tinySize = Size{
	Preset: "test", Trips: 1500, HeldOut: 300, IngestPool: 100, Yesterday: 200,
	SynEntries: 32, Setups: 1,
	HotKeys: 30, HotRate: 200, ReadRate: 100, IngestRate: 5, IngestBatch: 4, Publish: 200 * time.Millisecond,
	FleetBatch: 4, FleetPrefixes: 2, Counted: 40, CheckEvery: 4,
}

// fingerprint serializes every generated input in a fixed order; two
// runs with the same seed must produce identical bytes.
func (in *inputs) fingerprint() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	must := func(v any) {
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
	}
	for i := 0; i < in.train.Len(); i++ {
		must(in.train.Traj(i))
	}
	must(in.hotKeys)
	must(in.hotSeq)
	must(in.cold)
	must(in.synLog)
	must(in.fleet)
	must(in.ingest)
	return buf.Bytes()
}

func TestInputsAreSeedDeterministic(t *testing.T) {
	for _, w := range []string{"hot", "cold", "fleet", "ingest"} {
		a, err := genInputs(w, tinySize, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genInputs(w, tinySize, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := genInputs(w, tinySize, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.queries())+len(a.ingest) == 0 {
			t.Fatalf("%s: no queries generated", w)
		}
		if !bytes.Equal(a.fingerprint(), b.fingerprint()) {
			t.Errorf("%s: same seed gave different inputs", w)
		}
		if bytes.Equal(a.fingerprint(), c.fingerprint()) {
			t.Errorf("%s: a different seed gave identical inputs", w)
		}
	}
}

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},  // covers 10..40
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps the first: union 10..60
		{ID: 4, Parent: 1, Start: 90, End: 130}, // outlasts the parent: only 90..100 counts
		{ID: 5, Parent: 3, Start: 35, End: 45},  // grandchild: not the parent's child
		{ID: 6, Name: "other", Start: 0, End: 50},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 100 - 50 - 10, 2: 30, 3: 30 - 10, 4: 40, 5: 10, 6: 50}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
}

func TestChunkedTailIgnoresOneSpoiledChunk(t *testing.T) {
	xs := make([]float64, 8000)
	for i := range xs {
		xs[i] = float64(i%100) / 100 // p95 of every chunk: 0.94
	}
	for i := 0; i < 1000; i++ {
		xs[i] = 50 // one stalled chunk
	}
	got, k := chunkedTail(xs, 0.95)
	if k != 8 || got != 0.94 {
		t.Errorf("chunkedTail = %v over %d chunks, want 0.94 over 8", got, k)
	}
	if whole := quantile(xs, 0.95); whole != 50 {
		t.Errorf("whole-run p95 = %v; the fixture should spoil it", whole)
	}
	if _, k := chunkedTail(xs[:150], 0.95); k != 1 {
		t.Errorf("150 samples at p95 leave 7.5 beyond: want 1 chunk, got %d", k)
	}
}

// TestOpenLoopCountsQueueingBehindAStall is the coordinated-omission
// regression: one slow request holds the only connection, and the
// requests due meanwhile must be charged the wait from their due time,
// not timed from when they finally got sent.
func TestOpenLoopCountsQueueingBehindAStall(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(300 * time.Millisecond)
		}
		io.WriteString(w, "{}")
	}))
	defer srv.Close()
	c := newClient(1, nil)
	defer c.close()

	const rate, total = 100.0, 60 // one request every 10ms; the stall spans ~30 of them
	ss := openLoop(context.Background(), rate, total, 1, func(i int) sample {
		return c.post(context.Background(), srv.URL, "client", nil)
	})
	if len(ss) != total {
		t.Fatalf("sent %d of %d due requests", len(ss), total)
	}
	slowFromDue, slowFromSend := 0, 0
	for _, s := range ss {
		if s.latency() > 100*time.Millisecond {
			slowFromDue++
		}
		if s.End.Sub(s.Start) > 100*time.Millisecond {
			slowFromSend++
		}
	}
	if slowFromSend != 1 {
		t.Fatalf("%d requests were slow on the wire, want only the stalled one", slowFromSend)
	}
	if slowFromDue < 15 {
		t.Errorf("only %d requests show the stall in their latency; the ~20 queued behind it must", slowFromDue)
	}
	var late []float64
	for _, s := range ss {
		late = append(late, ms(s.late()))
	}
	if p99, _ := tail(late); p99 < 100 {
		t.Errorf("loadgen lateness p99 %.1fms does not show the stall", p99)
	}
}

// TestCheckerCatchesWrongAnswers shows the answer check can fail: a
// correct answer passes, while a tampered bucket, an answer checked
// against another model's epoch, and replies that fail validation all
// count as failures.
func TestCheckerCatchesWrongAnswers(t *testing.T) {
	in, err := genInputs("hot", tinySize, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := pathcost.NewSystem(in.g, in.train, in.params)
	if err != nil {
		t.Fatal(err)
	}
	otherParams := in.params
	otherParams.Beta = 10 // trains variables the served model lacks
	other, err := pathcost.NewSystem(in.g, in.train, otherParams)
	if err != nil {
		t.Fatal(err)
	}
	ref, otherRef := sys.CurrentEpoch().Hybrid, other.CurrentEpoch().Hybrid
	var q query
	var want []byte
	for _, k := range in.hotKeys {
		a, errA := direct(ref, in.params, k)
		b, errB := direct(otherRef, in.params, k)
		if errA == nil && errB == nil && !bytes.Equal(a, b) {
			q, want = k, a
			break
		}
	}
	if want == nil {
		t.Fatal("no hot key answers differently on the two models")
	}
	served := func() *api.DistributionResponse {
		var d api.DistributionResponse
		if err := json.Unmarshal(want, &d); err != nil {
			t.Fatal(err)
		}
		d.EvalUS = 1234 // the one field the check ignores
		return &d
	}

	chk := newChecker(in.params, io.Discard)
	chk.check(answer{q: q, resp: served()}, ref)
	if chk.failed != 0 || chk.compared != 1 {
		t.Fatalf("correct answer: %d failed, %d compared; want 0 and 1", chk.failed, chk.compared)
	}

	tampered := served()
	tampered.Buckets[len(tampered.Buckets)-1].Hi += 0.5 // still a valid histogram
	if _, err := histogramOf(tampered); err != nil {
		t.Fatalf("the tampered answer should pass validation: %v", err)
	}
	for name, c := range map[string]struct {
		resp *api.DistributionResponse
		ref  *core.HybridGraph
	}{
		"tampered bucket": {tampered, ref},
		"wrong epoch":     {served(), otherRef},
	} {
		chk := newChecker(in.params, io.Discard)
		chk.check(answer{q: q, resp: c.resp}, c.ref)
		if chk.failed != 1 {
			t.Errorf("%s: %d failures, want 1", name, chk.failed)
		}
	}

	chk = newChecker(in.params, io.Discard)
	chk.check(answer{q: q, resp: served()}, nil)
	if chk.compared != 0 || chk.skipped != 1 {
		t.Errorf("unknown epoch: %d compared, %d skipped; want 0 and 1", chk.compared, chk.skipped)
	}

	bad := served()
	bad.Buckets[0].Pr += 0.01 // mass 1.01
	badBody, _ := json.Marshal(bad)
	okBody, _ := json.Marshal(served())
	batch, _ := json.Marshal(api.BatchResponse{Results: []api.BatchResult{
		{Kind: "distribution", Status: 200, Distribution: served()},
		{Kind: "distribution", Status: 504, Error: "deadline exceeded"},
	}})
	for name, c := range map[string]struct {
		s       sample
		entries int
	}{
		"mass off by 0.01": {sample{Status: 200, Body: badBody}, 1},
		"status 500":       {sample{Status: 500, Body: okBody}, 1},
		"undecodable":      {sample{Status: 200, Body: []byte("{")}, 1},
		"bad batch entry":  {sample{Status: 200, Body: batch}, 2},
	} {
		s := c.s
		digest(&s, c.entries, func(int) bool { return true })
		if len(s.Problems) != 1 || s.Valid != c.entries-1 {
			t.Errorf("%s: %d problems, %d valid; want 1 and %d", name, len(s.Problems), s.Valid, c.entries-1)
		}
	}
}

// TestExactCountersRepeat runs the traced cold and fleet workloads twice
// with one seed: the deterministic work counters must match exactly.
func TestExactCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the tier four times")
	}
	exact := []string{"core.cells_touched", "core.factors", "planner.convolutions"}
	for _, w := range []string{"cold", "fleet"} {
		var runs [2]*result
		for i := range runs {
			res, err := run(context.Background(), runConfig{
				workload: w, seed: 3, seconds: 0.5, trace: true, size: tinySize,
				scratch: t.TempDir(), log: io.Discard,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("%s: %d of %d operations failed", w, res.Failed, res.Attempted)
			}
			runs[i] = res
		}
		for _, m := range exact {
			a, b := runs[0].Metrics[m].Value, runs[1].Metrics[m].Value
			if a != b {
				t.Errorf("%s %s: %v then %v", w, m, a, b)
			}
		}
		if runs[0].Metrics["core.cells_touched"].Value == 0 {
			t.Errorf("%s: core.cells_touched is 0", w)
		}
		if w == "fleet" && runs[0].Metrics["planner.convolutions"].Value == 0 {
			t.Errorf("fleet: planner.convolutions is 0")
		}
	}
}

// TestEveryWorkloadRunsClean runs each workload untraced and traced on
// the miniature and checks the result line's shape.
func TestEveryWorkloadRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the tier eight times")
	}
	for _, w := range []string{"hot", "cold", "fleet", "ingest"} {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), runConfig{
				workload: w, seed: 5, seconds: 0.5, trace: traced, size: tinySize,
				scratch: t.TempDir(), log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d operations failed", w, traced, res.Failed, res.Attempted)
			}
			if res.compared == 0 {
				t.Errorf("%s trace=%v: no answer was compared with a direct evaluation", w, traced)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or wrong unit", w, traced, d.name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w, d.name, m.Value)
				}
			}
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := tailPct[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs", w.Name)
		}
	}

	// workloads.json maps every layer metric to the end-to-end metric
	// it should move; it may name only metrics the benchmark reports.
	b, err = os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var record struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		Layers    []struct {
			Metrics []string `json:"metrics"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(b, &record); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	for _, l := range record.Layers {
		for _, m := range l.Metrics {
			if !known[m] {
				t.Errorf("workloads.json names metric %q, which the benchmark does not report", m)
			}
		}
	}
	for w := range tailPct {
		if _, ok := record.Workloads[w]; !ok {
			t.Errorf("workloads.json has no record of workload %q", w)
		}
	}
}
