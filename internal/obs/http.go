package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"saiyan/internal/flight"
)

// HandlerConfig assembles the HTTP telemetry plane.
type HandlerConfig struct {
	// Registry backs /metrics. May be nil (an empty exposition).
	Registry *Registry
	// Snapshot, when set, backs /snapshot with a cached JSON document
	// (the gateway snapshot is not safe to take concurrently with the
	// epoch loop, so the server caches the latest marshaled bytes).
	// Returning nil yields a 503 until the first snapshot exists.
	Snapshot func() []byte
	// Flight, when set, backs /flight: it receives the request's
	// ?trace= query value ("" for the recent-anomalies listing) and
	// returns the flight recorder's JSON rendering. Returning nil
	// yields a 503 (no recorder attached).
	Flight func(trace string) []byte
	// HealthPlane, when set, backs /health with the link-health plane's
	// JSON document: rules, active alerts, and the alert journal.
	// Returning nil yields a 503 (no health store attached).
	HealthPlane func() []byte
	// Timeseries, when set, backs /timeseries: it receives the
	// ?series= query value ("" for the series listing) and the ?tier=
	// value (0, the raw tier, when absent) and returns the health
	// store's rollup rendering. Returning nil for a non-empty series
	// yields a 404 (unknown series or tier); a nil callback yields a
	// 503 on every request.
	Timeseries func(series string, tier int) []byte
}

// get wraps a handler with the plane's method hygiene: read-only
// endpoints accept GET and HEAD and answer anything else with a 405
// that names the allowed methods.
func get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// NewHandler builds the telemetry mux: /metrics (Prometheus text
// exposition 0.0.4), /healthz (a liveness probe that always answers
// ok), /snapshot (cached JSON), /flight (recent
// anomaly dumps, or one trace's dumps via ?trace=), /health (link-health
// rules, alerts, and journal), /timeseries (rollup tiers, or the series
// listing), and the /debug/pprof/* profiling endpoints — on a private
// mux, so nothing leaks onto http.DefaultServeMux. Every endpoint sets
// an explicit Content-Type, rejects non-GET/HEAD methods with a 405, and
// answers malformed query parameters with a 400.
func NewHandler(cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", get(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cfg.Registry.WritePrometheus(w)
	}))
	mux.HandleFunc("/healthz", get(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}))
	mux.HandleFunc("/snapshot", get(func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if cfg.Snapshot != nil {
			body = cfg.Snapshot()
		}
		if body == nil {
			http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	mux.HandleFunc("/flight", get(func(w http.ResponseWriter, r *http.Request) {
		trace := r.URL.Query().Get("trace")
		if _, ok := flight.ParseTrace(trace); trace != "" && !ok {
			http.Error(w, "malformed trace id: want 16 hex digits", http.StatusBadRequest)
			return
		}
		var body []byte
		if cfg.Flight != nil {
			body = cfg.Flight(trace)
		}
		if body == nil {
			http.Error(w, "no flight recorder", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	mux.HandleFunc("/health", get(func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if cfg.HealthPlane != nil {
			body = cfg.HealthPlane()
		}
		if body == nil {
			http.Error(w, "no health store", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	mux.HandleFunc("/timeseries", get(func(w http.ResponseWriter, r *http.Request) {
		if cfg.Timeseries == nil {
			http.Error(w, "no health store", http.StatusServiceUnavailable)
			return
		}
		q := r.URL.Query()
		tier := 0
		if raw := q.Get("tier"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				http.Error(w, "malformed tier: want a non-negative integer", http.StatusBadRequest)
				return
			}
			tier = n
		}
		series := q.Get("series")
		body := cfg.Timeseries(series, tier)
		if body == nil {
			http.Error(w, "unknown series or tier", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
