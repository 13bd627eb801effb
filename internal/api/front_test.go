package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// waitQueued polls until n requests wait for a slot.
func waitQueued(t *testing.T, f *Front, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.Counters().Queued != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", f.Counters().Queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// errorBody decodes the error envelope of a recorded answer.
func errorBody(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("decoding error body %q: %v", rec.Body.String(), err)
	}
	return e.Error
}

func TestFrontDefaults(t *testing.T) {
	f := NewFront("server", Limits{MaxQueue: 3})
	want := Limits{MaxInFlight: DefaultMaxInFlight, MaxQueue: 3, MaxPathEdges: 256, MaxBatch: 64}
	if f.Limits != want {
		t.Fatalf("limits = %+v, want %+v", f.Limits, want)
	}
}

// TestFrontAcquireDeadContext: a client already gone counts abandoned
// and never takes the slot.
func TestFrontAcquireDeadContext(t *testing.T) {
	f := NewFront("server", Limits{MaxInFlight: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ { // select's choice is random; a dead ctx must lose every time
		if f.Acquire(ctx) {
			t.Fatal("dead context acquired a slot")
		}
	}
	if c := f.Counters(); c.Abandoned != 20 || c.Queued != 0 {
		t.Fatalf("counters = %+v, want 20 abandoned, 0 queued", c)
	}
	if !f.Acquire(context.Background()) {
		t.Fatal("slot burned by a dead context")
	}
	f.Release()
}

// TestFrontFreeSlotNeverQueued: taking a free slot never counts toward
// queue depth, so an idle front cannot shed even at MaxQueue 1.
func TestFrontFreeSlotNeverQueued(t *testing.T) {
	f := NewFront("server", Limits{MaxInFlight: 2, MaxQueue: 1})
	for i := 0; i < 2; i++ {
		if !f.Acquire(context.Background()) {
			t.Fatal("free slot refused")
		}
		if q := f.Counters().Queued; q != 0 {
			t.Fatalf("free slot counted as queued (%d)", q)
		}
		rec := httptest.NewRecorder()
		if f.shedIfFull(rec) {
			t.Fatal("front with free slots shed")
		}
	}
	f.Release()
	f.Release()
}

// TestFrontShedAtMaxQueue: with the gate full and MaxQueue waiters
// parked, the next arrival is answered 429 + Retry-After: 1 with the
// tier's message, and counted once as shed.
func TestFrontShedAtMaxQueue(t *testing.T) {
	for _, tier := range []string{"server", "coordinator"} {
		f := NewFront(tier, Limits{MaxInFlight: 1, MaxQueue: 1})
		f.Acquire(context.Background())
		got := make(chan bool)
		go func() { got <- f.Acquire(context.Background()) }()
		waitQueued(t, f, 1)

		rec := httptest.NewRecorder()
		if !f.shedIfFull(rec) {
			t.Fatalf("%s: full queue did not shed", tier)
		}
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("%s: shed status %d, want 429", tier, rec.Code)
		}
		if ra := rec.Header().Get("Retry-After"); ra != "1" {
			t.Fatalf("%s: Retry-After = %q, want \"1\"", tier, ra)
		}
		if msg := errorBody(t, rec); msg != tier+" overloaded, retry later" {
			t.Fatalf("%s: shed message %q", tier, msg)
		}
		if c := f.Counters(); c.Shed != 1 || c.Rejected != 1 {
			t.Fatalf("%s: counters = %+v, want 1 shed, 1 rejected", tier, c)
		}

		// Shedding rejects new arrivals, never parked ones.
		f.Release()
		if !<-got {
			t.Fatalf("%s: parked waiter lost its slot", tier)
		}
		f.Release()
	}
}

// TestFrontWaiterReleasedByContext: a parked waiter whose client
// leaves gives up, counts abandoned and leaves the queue.
func TestFrontWaiterReleasedByContext(t *testing.T) {
	f := NewFront("server", Limits{MaxInFlight: 1})
	f.Acquire(context.Background())
	defer f.Release()
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan bool)
	go func() { got <- f.Acquire(ctx) }()
	waitQueued(t, f, 1)
	cancel()
	if <-got {
		t.Fatal("cancelled waiter acquired the held slot")
	}
	if c := f.Counters(); c.Abandoned != 1 || c.Queued != 0 {
		t.Fatalf("counters = %+v, want 1 abandoned, 0 queued", c)
	}
}

// TestFrontBudgetHeaderTightensNeverWidens: the request deadline is
// the tighter of DefaultTimeout and X-Budget-Ms.
func TestFrontBudgetHeaderTightensNeverWidens(t *testing.T) {
	cases := []struct {
		name   string
		def    time.Duration
		header string
		want   time.Duration // 0 = no deadline
	}{
		{"unbounded", 0, "", 0},
		{"default only", time.Hour, "", time.Hour},
		{"header only", 0, "250", 250 * time.Millisecond},
		{"header tightens", time.Hour, "250", 250 * time.Millisecond},
		{"header never widens", time.Minute, "7200000", time.Minute},
	}
	for _, tc := range cases {
		f := NewFront("server", Limits{DefaultTimeout: tc.def})
		r := httptest.NewRequest(http.MethodPost, "/v1/distribution", nil)
		if tc.header != "" {
			r.Header.Set(BudgetHeader, tc.header)
		}
		start := time.Now()
		ctx, cancel, ok := f.requestContext(httptest.NewRecorder(), r)
		end := time.Now()
		if !ok {
			t.Fatalf("%s: valid request refused", tc.name)
		}
		dl, has := ctx.Deadline()
		cancel()
		if tc.want == 0 {
			if has {
				t.Fatalf("%s: unexpected deadline", tc.name)
			}
			continue
		}
		if !has || dl.Before(start.Add(tc.want)) || dl.After(end.Add(tc.want)) {
			t.Fatalf("%s: deadline %v after start (set %v), want %v", tc.name, dl.Sub(start), has, tc.want)
		}
	}
}

func TestFrontBudgetHeaderGarbage(t *testing.T) {
	f := NewFront("server", Limits{})
	for _, bad := range []string{"soon", "-5", "0", "1.5"} {
		r := httptest.NewRequest(http.MethodPost, "/v1/distribution", nil)
		r.Header.Set(BudgetHeader, bad)
		rec := httptest.NewRecorder()
		if _, _, ok := f.requestContext(rec, r); ok {
			t.Fatalf("budget %q accepted", bad)
		}
		if rec.Code != http.StatusBadRequest || !strings.Contains(errorBody(t, rec), BudgetHeader) {
			t.Fatalf("budget %q: status %d body %q, want 400 naming the header", bad, rec.Code, rec.Body)
		}
	}
	if c := f.Counters(); c.Rejected != 4 {
		t.Fatalf("rejected = %d, want 4", c.Rejected)
	}
}

func TestFrontDecode(t *testing.T) {
	type body struct {
		Path []int64 `json:"path"`
	}
	cases := []struct {
		name   string
		method string
		body   string
		max    int64
		want   int // 0 = accepted
	}{
		{"valid", http.MethodPost, `{"path":[1,2]}`, maxBody, 0},
		{"not post", http.MethodGet, ``, maxBody, http.StatusMethodNotAllowed},
		{"unknown field", http.MethodPost, `{"path":[1],"pth":[2]}`, maxBody, http.StatusBadRequest},
		{"oversized", http.MethodPost, `{"path":[1,2,3,4,5,6,7,8,9]}`, 8, http.StatusBadRequest},
		{"garbage", http.MethodPost, `{"path":`, maxBody, http.StatusBadRequest},
	}
	for _, tc := range cases {
		f := NewFront("server", Limits{})
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(tc.method, "/v1/distribution", strings.NewReader(tc.body))
		var dst body
		ok := f.Decode(rec, r, &dst, tc.max)
		if ok != (tc.want == 0) {
			t.Fatalf("%s: decode ok = %v", tc.name, ok)
		}
		if ok {
			if len(dst.Path) != 2 {
				t.Fatalf("%s: decoded %+v", tc.name, dst)
			}
			continue
		}
		if rec.Code != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
		if c := f.Counters(); c.Rejected != 1 {
			t.Fatalf("%s: rejected = %d, want 1", tc.name, c.Rejected)
		}
	}
}

// TestFrontBeginShedsBeforeDecoding: a shed request costs no decode
// and gets no context.
func TestFrontBeginShedsBeforeDecoding(t *testing.T) {
	f := NewFront("server", Limits{MaxInFlight: 1, MaxQueue: 1})
	f.Acquire(context.Background())
	go f.Acquire(context.Background())
	waitQueued(t, f, 1)
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "/v1/distribution", nil) // would be a 405
	if _, _, ok := f.Begin(rec, r, &struct{}{}); ok || rec.Code != http.StatusTooManyRequests {
		t.Fatalf("begin at full queue: ok %v status %d, want 429", ok, rec.Code)
	}
	f.Release()
	waitQueued(t, f, 0)
	f.Release()
}

func TestFrontEnvelopeCounters(t *testing.T) {
	f := NewFront("server", Limits{})
	rec := httptest.NewRecorder()
	f.WriteJSON(rec, http.StatusOK, map[string]int{"x": 1})
	if rec.Header().Get("Content-Type") != "application/json" || rec.Body.String() != "{\"x\":1}\n" {
		t.Fatalf("WriteJSON wrote %q (%s)", rec.Body, rec.Header().Get("Content-Type"))
	}
	f.WriteJSONUncounted(httptest.NewRecorder(), http.StatusOK, "probe")
	rec = httptest.NewRecorder()
	f.WriteError(rec, http.StatusUnprocessableEntity, "sparse")
	if rec.Code != http.StatusUnprocessableEntity || errorBody(t, rec) != "sparse" {
		t.Fatalf("WriteError wrote %d %q", rec.Code, rec.Body)
	}
	if c := f.Counters(); c.Served != 1 || c.Rejected != 1 {
		t.Fatalf("counters = %+v, want 1 served, 1 rejected", c)
	}

	// WriteOutcome: status 0 writes nothing and counts nothing.
	rec = httptest.NewRecorder()
	f.WriteOutcome(rec, 0, "", nil)
	f.WriteOutcome(rec, http.StatusOK, "", "ok")
	f.WriteOutcome(httptest.NewRecorder(), http.StatusGatewayTimeout, "deadline exceeded", nil)
	if c := f.Counters(); c.Served != 2 || c.Rejected != 2 {
		t.Fatalf("counters after outcomes = %+v, want 2 served, 2 rejected", c)
	}
}

func TestFrontHealthz(t *testing.T) {
	f := NewFront("server", Limits{})
	rec := httptest.NewRecorder()
	f.HandleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	f.HandleHealthz(rec, httptest.NewRequest(http.MethodPost, "/healthz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST healthz = %d, want 405", rec.Code)
	}
	if c := f.Counters(); c.Served != 0 || c.Rejected != 1 {
		t.Fatalf("counters = %+v: probes must not count as served", c)
	}
}

func TestFrontDeadlineOutcome(t *testing.T) {
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if status, msg := DeadlineOutcome(expired); status != http.StatusGatewayTimeout || msg != "deadline exceeded" {
		t.Fatalf("expired deadline = %d %q, want 504", status, msg)
	}
	gone, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if status, _ := DeadlineOutcome(gone); status != 0 {
		t.Fatalf("vanished client = %d, want 0 (write nothing)", status)
	}
}

func TestFrontExposition(t *testing.T) {
	f := NewFront("server", Limits{})
	f.WriteJSON(httptest.NewRecorder(), http.StatusOK, 1)
	h := MetricsHandler(func(m *Exposition) {
		f.Requests(m, "x_", "evaluation")
		m.Gauge("x_up", "Up.", 1.5)
		m.Family("x_calls_total", "counter", "Calls.")
		m.Sample("x_calls_total", 7, "region", "0", "replica", "http://a")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want := "# HELP x_requests_served_total Requests answered 2xx.\n" +
		"# TYPE x_requests_served_total counter\nx_requests_served_total 1\n" +
		"# HELP x_requests_rejected_total Requests answered 4xx/5xx.\n" +
		"# TYPE x_requests_rejected_total counter\nx_requests_rejected_total 0\n" +
		"# HELP x_requests_abandoned_total Clients gone before evaluation started.\n" +
		"# TYPE x_requests_abandoned_total counter\nx_requests_abandoned_total 0\n" +
		"# HELP x_requests_shed_total Requests answered 429 by the MaxQueue load shedder.\n" +
		"# TYPE x_requests_shed_total counter\nx_requests_shed_total 0\n" +
		"# HELP x_up Up.\n# TYPE x_up gauge\nx_up 1.5\n" +
		"# HELP x_calls_total Calls.\n# TYPE x_calls_total counter\n" +
		"x_calls_total{region=\"0\",replica=\"http://a\"} 7\n"
	if rec.Body.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", rec.Body, want)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
}
