package server

import (
	"net/http"

	"repro/internal/api"
)

// Metrics returns a GET handler exposing the server's operational
// counters in the Prometheus text format. It is not mounted on the
// query mux: the daemon mounts it on the observability listener
// (-pprof-addr) so scrapers never compete with query traffic for the
// serving socket.
func (s *Server) Metrics() http.Handler {
	return api.MetricsHandler(func(m *api.Exposition) {
		s.Requests(m, "pathcost_", "evaluation")
		m.Counter("pathcost_reloads_total", "Model hot reloads (Swap calls).", s.reloads.Load())
		m.Gauge("pathcost_uptime_seconds", "Seconds since the server started.", s.Uptime().Seconds())
		m.Gauge("pathcost_max_in_flight", "Concurrent evaluation slot cap.", float64(s.cfg.MaxInFlight))
		m.Gauge("pathcost_queued", "Requests currently waiting for an evaluation slot.", float64(s.Counters().Queued))

		st := s.System().Stats()
		m.Gauge("pathcost_epoch_seq", "Served model epoch sequence number.", float64(st.Epoch.Seq))
		m.Counter("pathcost_epoch_publishes_total", "Incremental epoch publishes.", st.Epoch.Publishes)
		m.Gauge("pathcost_epoch_staged_pending", "Trajectories staged for the next epoch publish.", float64(st.Epoch.StagedPending))
		if c := st.Cache; c != nil {
			m.Counter("pathcost_query_cache_hits_total", "Query cache hits.", c.Hits)
			m.Counter("pathcost_query_cache_misses_total", "Query cache misses.", c.Misses)
		}
		if c := st.Memo; c != nil {
			m.Counter("pathcost_conv_memo_hits_total", "Convolution memo hits.", c.Hits)
			m.Counter("pathcost_conv_memo_misses_total", "Convolution memo misses.", c.Misses)
		}
		if syn := st.Synopsis; syn != nil {
			m.Counter("pathcost_synopsis_hits_total", "Synopsis store hits.", syn.Hits)
			m.Counter("pathcost_synopsis_misses_total", "Synopsis store misses.", syn.Misses)
		}
	})
}
