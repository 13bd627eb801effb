package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// DefaultMaxInFlight bounds concurrently admitted work when
// Limits.MaxInFlight is 0. Query evaluation is CPU-bound, so a small
// multiple of typical core counts is plenty; excess requests queue.
const DefaultMaxInFlight = 32

// maxBody caps a query request's JSON body.
const maxBody = 1 << 20

// Limits are the admission and request-shape bounds both serving tiers
// enforce. NewFront fills every zero field with its default.
type Limits struct {
	// MaxInFlight caps concurrently admitted work (0 =
	// DefaultMaxInFlight). Requests beyond the cap wait for a slot or
	// for the client to give up. What one slot covers is the tier's
	// call: the server charges each underlying evaluation, the
	// coordinator each request's whole composition.
	MaxInFlight int
	// MaxQueue, when > 0, sheds load: a request arriving while MaxQueue
	// or more requests are already waiting for a slot is answered 429
	// with Retry-After instead of joining the queue. Shedding at
	// admission keeps queue depth — and thus worst-case latency behind
	// the MaxInFlight gate — bounded. 0 disables shedding (requests
	// queue until the client gives up).
	MaxQueue int
	// MaxPathEdges caps the path cardinality of a distribution query
	// (0 = 256). Evaluation cost grows with path length, so an uncapped
	// path would let a few maximal requests monopolize the slots.
	MaxPathEdges int
	// MaxBatch caps the entries of one /v1/batch request (0 = 64).
	MaxBatch int
	// DefaultTimeout, when > 0, bounds every query request with a
	// deadline: its context expires after this long and the request
	// answers 504. A client can tighten (never widen) the bound per
	// request with the BudgetHeader header. 0 leaves requests
	// unbounded.
	DefaultTimeout time.Duration
}

// Front is the HTTP front both serving tiers embed: the admission
// gate with its queue-bound shedder, the request context, the body
// decoder, the JSON envelope and the request counters. Keeping one
// copy means a request is admitted, bounded, decoded and counted the
// same way whichever tier answers it. All methods are safe for
// concurrent use.
type Front struct {
	// Limits are the defaulted bounds this front enforces.
	Limits Limits

	tier  string // names the tier in the shed message
	sem   chan struct{}
	start time.Time

	served    atomic.Uint64 // requests answered 2xx
	rejected  atomic.Uint64 // requests answered 4xx/5xx
	abandoned atomic.Uint64 // clients gone before their work started
	shed      atomic.Uint64 // requests answered 429 by the MaxQueue shedder
	queued    atomic.Int64  // requests currently waiting for a slot
}

// NewFront builds the front of one tier; tier ("server",
// "coordinator") names it in the 429 message.
func NewFront(tier string, l Limits) *Front {
	if l.MaxInFlight <= 0 {
		l.MaxInFlight = DefaultMaxInFlight
	}
	if l.MaxPathEdges <= 0 {
		l.MaxPathEdges = 256
	}
	if l.MaxBatch <= 0 {
		l.MaxBatch = 64
	}
	return &Front{
		Limits: l,
		tier:   tier,
		sem:    make(chan struct{}, l.MaxInFlight),
		start:  time.Now(),
	}
}

// Counters is a snapshot of a front's request accounting.
type Counters struct {
	Served    uint64
	Rejected  uint64
	Abandoned uint64
	Shed      uint64
	// Queued is the number of requests waiting for a slot right now.
	Queued int64
}

// Counters snapshots the request accounting.
func (f *Front) Counters() Counters {
	return Counters{
		Served:    f.served.Load(),
		Rejected:  f.rejected.Load(),
		Abandoned: f.abandoned.Load(),
		Shed:      f.shed.Load(),
		Queued:    f.queued.Load(),
	}
}

// Uptime is the time since the front was built.
func (f *Front) Uptime() time.Duration { return time.Since(f.start) }

// Acquire takes a slot, giving up when ctx ends first. It reports
// whether the slot was obtained; the caller must Release exactly once
// when it was. Batch entries pass their request's context, so one
// disconnected batch client frees every slot its entries waited for.
func (f *Front) Acquire(ctx context.Context) bool {
	if ctx.Err() != nil {
		// Already-dead client: don't let select's random choice burn
		// a slot on work nobody will receive.
		f.abandoned.Add(1)
		return false
	}
	select {
	case f.sem <- struct{}{}:
		// Free slot: never counts toward queue depth, so an idle
		// front cannot shed.
		return true
	default:
	}
	f.queued.Add(1)
	defer f.queued.Add(-1)
	select {
	case f.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		// Nothing will be written for this request; count it so the
		// stats still show traffic lost under saturation.
		f.abandoned.Add(1)
		return false
	}
}

// Release returns a slot taken by Acquire.
func (f *Front) Release() { <-f.sem }

// Abandon counts a request whose client vanished without the gate
// noticing (a singleflight follower unparked by its own dead context).
func (f *Front) Abandon() { f.abandoned.Add(1) }

// shedIfFull implements Limits.MaxQueue: when the slot queue is already at
// its bound, it answers 429 + Retry-After now rather than stacking
// another waiter behind the gate, and reports true. Checked at handler
// entry, before the body is parsed — a shed request should cost close
// to nothing. Distinct from a 503: 429 means "healthy but full, back
// off", and the coordinator's hedging treats it as advisory, not as
// shard failure.
func (f *Front) shedIfFull(w http.ResponseWriter) bool {
	if f.Limits.MaxQueue <= 0 || f.queued.Load() < int64(f.Limits.MaxQueue) {
		return false
	}
	f.shed.Add(1)
	w.Header().Set("Retry-After", "1")
	f.WriteError(w, http.StatusTooManyRequests, f.tier+" overloaded, retry later")
	return true
}

// requestContext derives the context of one query request: the
// tighter of Limits.DefaultTimeout and the caller's BudgetHeader,
// layered on the request's own context so a client disconnect still
// cancels immediately. ok = false means the header was garbage and a
// 400 was already written. The returned cancel must always be called.
func (f *Front) requestContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc, bool) {
	budget, hasBudget, err := ParseBudget(r.Header.Get(BudgetHeader))
	if err != nil {
		f.WriteError(w, http.StatusBadRequest, err.Error())
		return nil, nil, false
	}
	timeout := f.Limits.DefaultTimeout
	if hasBudget && (timeout <= 0 || budget < timeout) {
		timeout = budget
	}
	if timeout <= 0 {
		return r.Context(), func() {}, true
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, cancel, true
}

// Decode reads a JSON POST body of at most maxBytes into dst,
// rejecting other methods and unknown fields; false means the error
// answer was already written.
func (f *Front) Decode(w http.ResponseWriter, r *http.Request, dst any, maxBytes int64) bool {
	if r.Method != http.MethodPost {
		f.WriteError(w, http.StatusMethodNotAllowed, "use POST with a JSON body")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		f.WriteError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	return true
}

// Begin opens one query request: shedIfFull, then Decode into dst, then
// requestContext. ok = false means the answer was already written;
// otherwise cancel must be called.
func (f *Front) Begin(w http.ResponseWriter, r *http.Request, dst any) (context.Context, context.CancelFunc, bool) {
	if f.shedIfFull(w) || !f.Decode(w, r, dst, maxBody) {
		return nil, nil, false
	}
	return f.requestContext(w, r)
}

// WriteJSON answers a request and counts it served; probe-style
// endpoints (/healthz, /v1/stats) use WriteJSONUncounted so liveness
// checks and metric pollers don't inflate the throughput counter.
func (f *Front) WriteJSON(w http.ResponseWriter, code int, v any) {
	f.WriteJSONUncounted(w, code, v)
	f.served.Add(1)
}

// WriteJSONUncounted writes v as the JSON answer without counting it.
func (f *Front) WriteJSONUncounted(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the error envelope and counts the request rejected.
func (f *Front) WriteError(w http.ResponseWriter, code int, msg string) {
	f.WriteJSONUncounted(w, code, Error{Error: msg})
	f.rejected.Add(1)
}

// WriteOutcome writes one evaluated request: status 0 writes nothing
// (the client is gone), 200 writes resp, and anything else writes the
// error envelope with msg.
func (f *Front) WriteOutcome(w http.ResponseWriter, status int, msg string, resp any) {
	switch status {
	case 0:
	case http.StatusOK:
		f.WriteJSON(w, status, resp)
	default:
		f.WriteError(w, status, msg)
	}
}

// HandleHealthz serves GET /healthz.
func (f *Front) HandleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		f.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	f.WriteJSONUncounted(w, http.StatusOK, map[string]string{"status": "ok"})
}

// DeadlineOutcome maps work that died with its context to its answer:
// an expired deadline (server-imposed or requested by header) is a
// real outcome the client is still waiting to hear — 504; a vanished
// client gets nothing (status 0).
func DeadlineOutcome(ctx context.Context) (int, string) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, "deadline exceeded"
	}
	return 0, ""
}

// --- Prometheus exposition ---------------------------------------------

// Exposition accumulates one Prometheus text exposition; each metric
// carries its HELP/TYPE preamble, so the output stays well-formed as
// metrics are added.
type Exposition struct {
	b strings.Builder
}

// Counter writes one unlabeled counter.
func (e *Exposition) Counter(name, help string, v uint64) {
	e.Family(name, "counter", help)
	fmt.Fprintf(&e.b, "%s %d\n", name, v)
}

// Gauge writes one unlabeled gauge.
func (e *Exposition) Gauge(name, help string, v float64) {
	e.Family(name, "gauge", help)
	fmt.Fprintf(&e.b, "%s %g\n", name, v)
}

// Family writes the preamble of a labeled family; Sample then adds
// its series.
func (e *Exposition) Family(name, typ, help string) {
	fmt.Fprintf(&e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one series of a family; labels alternate name, value.
func (e *Exposition) Sample(name string, v uint64, labels ...string) {
	e.b.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(&e.b, "%s%s=%q", sep, labels[i], labels[i+1])
	}
	if len(labels) > 0 {
		e.b.WriteByte('}')
	}
	fmt.Fprintf(&e.b, " %d\n", v)
}

// Requests writes the front's request counters under prefix; work
// names what an abandoned client never got to start.
func (f *Front) Requests(e *Exposition, prefix, work string) {
	c := f.Counters()
	e.Counter(prefix+"requests_served_total", "Requests answered 2xx.", c.Served)
	e.Counter(prefix+"requests_rejected_total", "Requests answered 4xx/5xx.", c.Rejected)
	e.Counter(prefix+"requests_abandoned_total", "Clients gone before "+work+" started.", c.Abandoned)
	e.Counter(prefix+"requests_shed_total", "Requests answered 429 by the MaxQueue load shedder.", c.Shed)
}

// MetricsHandler serves GET requests with the exposition fill writes.
func MetricsHandler(fill func(*Exposition)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		var e Exposition
		fill(&e)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(e.b.String()))
	})
}
