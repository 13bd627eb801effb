package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
)

// sample is one request's timing. Due is the scheduled send time in an
// open loop and equals Start in a closed loop. Latency counts from From:
// Due when the request was already due before any connection was free
// to send it, so waiting behind a stalled request is charged to the
// request that waited (no coordinated omission); Start otherwise, so
// the sender's own wake-up delay is reported as loadgen lateness
// instead of server latency.
type sample struct {
	Index                 int // position in the workload's request stream
	Due, From, Start, End time.Time
	Status                int
	Body                  []byte
	Err                   error

	// Filled by digest for distribution and batch replies.
	Valid    int                         // entries that passed validation
	Kept     []*api.DistributionResponse // entries kept for the later checks
	Problems []problem
}

// problem is one failed entry of a reply.
type problem struct {
	entry int
	msg   string
}

func (s sample) latency() time.Duration { return s.End.Sub(s.From) }
func (s sample) late() time.Duration    { return s.Start.Sub(s.Due) }

// openLoop sends n requests, the i-th due at start + i/rate, over conns
// workers. A due request is never skipped: when every worker is busy
// it waits, and the wait counts in its latency.
func openLoop(ctx context.Context, rate float64, n, conns int, send func(i int) sample) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				queued := time.Now().After(due)
				sleepUntil(due)
				s := send(i)
				s.Index, s.Due, s.From = i, due, s.Start
				if queued {
					s.From = due
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), n)]
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer behind time.Sleep wakes about a millisecond late on Linux (the
// runtime's poller waits in whole milliseconds), five times a cached
// answer's latency; nanosleep wakes within ~0.1 ms. Signals, such as
// the runtime's preemption signal, cut a sleep short, so it loops.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// closedLoop runs clients that each send their next request as soon
// as the previous one returns, for d; the shared counter hands every
// request a distinct stream index.
func closedLoop(ctx context.Context, clients int, d time.Duration, send func(i int) sample) []sample {
	var mu sync.Mutex
	var out []sample
	var next atomic.Int64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				s := send(i)
				s.Index, s.Due, s.From = i, s.Start, s.Start
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// client posts request bodies to one tier, recording a client span per
// request when traced.
type client struct {
	hc  *http.Client
	rec *recorder
}

// newClient returns a client limited to conns connections, the
// benchmark's whole concurrency towards the tier.
func newClient(conns int, rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{hc: &http.Client{Transport: tr}, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to url and reads the whole response; name labels the
// client span.
func (c *client) post(ctx context.Context, url, name string, body []byte) sample {
	id := c.rec.newID()
	s := sample{Start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		s.Err, s.End = err, time.Now()
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		s.Status = resp.StatusCode
		s.Body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.Err, s.End = err, time.Now()
	c.rec.add(id, 0, id, name, s.Start, s.End)
	return s
}

// get fetches url's body (the stats endpoints).
func (c *client) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, err
}
