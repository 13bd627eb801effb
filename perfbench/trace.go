package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestIDHeader carries the client span's id on every request the
// benchmark sends, so server-side middleware can link its span to it.
const requestIDHeader = "X-Request-Id"

// span is one timed call at a layer boundary. Parent is the span that
// caused it and Req the request it serves: the id of the client span
// that sent it (0 where no link is known, as on shard legs, whose
// requests the coordinator does not tag). Times are nanoseconds since
// the recorder's origin.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out. A nil
// *recorder records nothing: that is the untraced run.
type recorder struct {
	origin time.Time
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.origin)) }

// add records a span that ran from start to end.
func (r *recorder) add(id, parent, req uint64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: r.at(start), End: r.at(end)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts a new set.
func (r *recorder) take() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// write stores spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// spanCtx is the handler span's identity, carried in the request
// context to the calls the handler makes.
type spanCtx struct{ id, req uint64 }

// middleware wraps a server's handler with a span named name. When
// linked, the span's parent is the client span named by the request's
// X-Request-Id; the span's own id travels in the request context so
// calls the handler makes through tracedTransport link to it.
func (r *recorder) middleware(name string, linked bool, next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := r.newID()
		var parent uint64
		if linked {
			parent, _ = strconv.ParseUint(req.Header.Get(requestIDHeader), 10, 64)
		}
		start := time.Now()
		next.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), spanKey{}, spanCtx{id, parent})))
		r.add(id, parent, parent, name, start, time.Now())
	})
}

// tracedTransport records a span per outgoing call, from sending the
// request until its body is closed, parented to the handler span found
// in the request context.
type tracedTransport struct {
	rec  *recorder
	name string
	next http.RoundTripper
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, _ := req.Context().Value(spanKey{}).(spanCtx)
	id := t.rec.newID()
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.rec.add(id, sc.id, sc.req, t.name, start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.rec.add(id, sc.id, sc.req, t.name, start, time.Now()) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval covered by its children. Children may overlap each
// other and may outlast the parent; only the covered part of the
// parent's own interval is subtracted.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(cover(s.Start, s.End, children[s.ID]))
	}
	return out
}

// cover is the length of the union of the intervals of cs clipped to
// [lo, hi].
func cover(lo, hi int64, cs []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(cs))
	for _, c := range cs {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			curA, curB, open = x.a, x.b, true
		case x.a <= curB:
			curB = max(curB, x.b)
		default:
			total += curB - curA
			curA, curB = x.a, x.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
