package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/api"
)

// --- handlers ----------------------------------------------------------

// processOne runs a single entry through the wave engine under one
// admission slot.
func (c *Coordinator) processOne(ctx context.Context, q api.BatchQuery) (api.BatchResult, bool) {
	if !c.Acquire(ctx) {
		status, msg := api.DeadlineOutcome(ctx)
		return api.BatchResult{Status: status, Error: msg}, status != 0
	}
	defer c.Release()
	res := c.process(ctx, []api.BatchQuery{q})
	return res[0], true
}

func (c *Coordinator) handleDistribution(w http.ResponseWriter, r *http.Request) {
	var req api.DistributionRequest
	ctx, cancel, ok := c.Begin(w, r, &req)
	if !ok {
		return
	}
	defer cancel()
	res, ok := c.processOne(ctx, api.BatchQuery{
		Kind: "distribution", Path: req.Path, Depart: req.Depart,
		Method: req.Method, Budget: req.Budget,
	})
	if !ok {
		return
	}
	c.WriteOutcome(w, res.Status, res.Error, res.Distribution)
}

func (c *Coordinator) handleRoute(w http.ResponseWriter, r *http.Request) {
	var req api.RouteRequest
	ctx, cancel, ok := c.Begin(w, r, &req)
	if !ok {
		return
	}
	defer cancel()
	res, ok := c.processOne(ctx, api.BatchQuery{
		Kind: "route", Source: req.Source, Dest: req.Dest,
		Depart: req.Depart, Budget: req.Budget, Method: req.Method,
	})
	if !ok {
		return
	}
	c.WriteOutcome(w, res.Status, res.Error, res.Route)
}

func (c *Coordinator) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req api.TopKRequest
	ctx, cancel, ok := c.Begin(w, r, &req)
	if !ok {
		return
	}
	defer cancel()
	res, ok := c.processOne(ctx, api.BatchQuery{
		Kind: "topk", Source: req.Source, Dest: req.Dest,
		Depart: req.Depart, Budget: req.Budget, Method: req.Method, K: req.K,
	})
	if !ok {
		return
	}
	c.WriteOutcome(w, res.Status, res.Error, res.TopK)
}

func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	ctx, cancel, ok := c.Begin(w, r, &req)
	if !ok {
		return
	}
	defer cancel()
	if len(req.Queries) == 0 {
		c.WriteError(w, http.StatusBadRequest, "batch must contain at least one query")
		return
	}
	if len(req.Queries) > c.cfg.MaxBatch {
		c.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d queries, cap is %d", len(req.Queries), c.cfg.MaxBatch))
		return
	}
	if !c.Acquire(ctx) {
		status, msg := api.DeadlineOutcome(ctx)
		c.WriteOutcome(w, status, msg, nil)
		return
	}
	results := func() []api.BatchResult {
		defer c.Release()
		return c.process(ctx, req.Queries)
	}()
	if r.Context().Err() != nil {
		return // client gone; an expired deadline still answers (per-entry 504s)
	}
	c.WriteJSON(w, http.StatusOK, api.BatchResponse{Results: results})
}

// --- stats -------------------------------------------------------------

// coordReplicaStatus is one replica's health and breaker state as the
// coordinator sees it.
type coordReplicaStatus struct {
	Base          string `json:"base"`
	Healthy       bool   `json:"healthy"`
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	Calls         uint64 `json:"calls"`
	CallFailures  uint64 `json:"call_failures"`
	// BreakerOpen reports a breaker currently fencing this replica out
	// of the rotation; BreakerTrips counts how often it has opened.
	BreakerOpen  bool   `json:"breaker_open"`
	BreakerTrips uint64 `json:"breaker_trips"`
}

// coordShardStatus is one region's replica group. Healthy is the
// group verdict: true while any replica is believed up.
type coordShardStatus struct {
	Region   int                  `json:"region"`
	Healthy  bool                 `json:"healthy"`
	Replicas []coordReplicaStatus `json:"replicas"`
	// Epoch is the region's served model epoch, fetched live from the
	// first answering replica's /v1/stats; absent when the whole group
	// is unreachable or runs with ingestion off.
	Epoch *uint64 `json:"epoch,omitempty"`
}

type coordStatsResponse struct {
	K           int                `json:"k"`
	Shards      []coordShardStatus `json:"shards"`
	UptimeS     float64            `json:"uptime_s"`
	Served      uint64             `json:"served"`
	Rejected    uint64             `json:"rejected"`
	Abandoned   uint64             `json:"abandoned"`
	Shed        uint64             `json:"shed"`
	Hedges      uint64             `json:"hedges"`
	MaxInFlight int                `json:"max_in_flight"`
	MaxQueue    int                `json:"max_queue,omitempty"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		c.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	fc := c.Counters()
	resp := coordStatsResponse{
		K:           c.part.K,
		UptimeS:     c.Uptime().Seconds(),
		Served:      fc.Served,
		Rejected:    fc.Rejected,
		Abandoned:   fc.Abandoned,
		Shed:        fc.Shed,
		Hedges:      c.hedges.Load(),
		MaxInFlight: c.cfg.MaxInFlight,
		MaxQueue:    c.cfg.MaxQueue,
	}
	now := time.Now()
	for _, ss := range c.shards {
		st := coordShardStatus{
			Region:  ss.region,
			Healthy: ss.healthy(),
		}
		for _, rs := range ss.replicas {
			st.Replicas = append(st.Replicas, coordReplicaStatus{
				Base:          rs.base,
				Healthy:       rs.healthy.Load(),
				Probes:        rs.probes.Load(),
				ProbeFailures: rs.probeFailures.Load(),
				Calls:         rs.calls.Load(),
				CallFailures:  rs.callFailures.Load(),
				BreakerOpen:   !rs.admitted(now),
				BreakerTrips:  rs.breakerTrips.Load(),
			})
		}
		st.Epoch = c.fetchEpoch(r.Context(), ss)
		resp.Shards = append(resp.Shards, st)
	}
	c.WriteJSONUncounted(w, http.StatusOK, resp)
}

// fetchEpoch asks a region's /v1/stats for its epoch sequence, trying
// replicas in breaker-preference order; nil when the whole group is
// down or serves without an epoch block.
func (c *Coordinator) fetchEpoch(ctx context.Context, ss *shardState) *uint64 {
	for _, rs := range ss.candidates(time.Now()) {
		if seq := c.fetchReplicaEpoch(ctx, rs); seq != nil {
			return seq
		}
	}
	return nil
}

func (c *Coordinator) fetchReplicaEpoch(ctx context.Context, rs *replicaState) *uint64 {
	rctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, rs.base+"/v1/stats", nil)
	if err != nil {
		return nil
	}
	hresp, err := c.client.Do(req)
	if err != nil {
		return nil
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return nil
	}
	var body struct {
		Epoch *struct {
			Seq uint64 `json:"seq"`
		} `json:"epoch"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&body); err != nil || body.Epoch == nil {
		return nil
	}
	return &body.Epoch.Seq
}

// --- metrics -----------------------------------------------------------

// metrics serves the coordinator's Prometheus scrape: request
// counters plus per-region and per-replica health, call and breaker
// series.
func (c *Coordinator) metrics() http.Handler {
	return api.MetricsHandler(func(m *api.Exposition) {
		c.Requests(m, "pathcost_coordinator_", "composition")
		m.Counter("pathcost_coordinator_hedges_total", "Second legs launched against slow or failed shard calls.", c.hedges.Load())
		m.Gauge("pathcost_coordinator_uptime_seconds", "Seconds since the coordinator started.", c.Uptime().Seconds())
		m.Family("pathcost_coordinator_shard_healthy", "gauge", "Last known group health per region (1 while any replica is up).")
		for _, ss := range c.shards {
			m.Sample("pathcost_coordinator_shard_healthy", b2u(ss.healthy()), "region", fmt.Sprint(ss.region))
		}
		// Each per-replica family lists every replica of every region.
		replicas := func(name, typ, help string, value func(*replicaState) uint64) {
			m.Family(name, typ, help)
			for _, ss := range c.shards {
				for _, rs := range ss.replicas {
					m.Sample(name, value(rs), "region", fmt.Sprint(ss.region), "replica", rs.base)
				}
			}
		}
		replicas("pathcost_coordinator_replica_healthy", "gauge", "Last known replica health (1 healthy, 0 not).",
			func(rs *replicaState) uint64 { return b2u(rs.healthy.Load()) })
		replicas("pathcost_coordinator_shard_calls_total", "counter", "Call legs per replica.",
			func(rs *replicaState) uint64 { return rs.calls.Load() })
		now := time.Now()
		replicas("pathcost_coordinator_breaker_open", "gauge", "Replica circuit breaker state (1 open, 0 closed).",
			func(rs *replicaState) uint64 { return b2u(!rs.admitted(now)) })
	})
}

// b2u renders a boolean gauge sample.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
