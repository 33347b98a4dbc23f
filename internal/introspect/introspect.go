// Package introspect is the live run-introspection server: a small HTTP
// surface over a running (or finished) simulation exposing Prometheus
// metrics, liveness, simulation progress, per-chunk lineage queries, and the
// standard pprof handlers. The CLIs mount it behind a `-http :PORT` flag, so
// a long paper-scale run can be watched — and profiled — while the virtual
// clock is still advancing. With an API handler attached (nvmcp-sim -serve),
// the same listener also fronts the checkpoint control plane under /api/.
//
// Every read goes through race-safe snapshots (obs.Progress, the metrics
// registry's own locking, and the lineage tracer's mutex); the server never
// touches the simulation environment directly, so HTTP goroutines cannot
// race the single-threaded virtual clock.
package introspect

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"nvmcp/internal/drift"
	"nvmcp/internal/lineage"
	"nvmcp/internal/obs"
	"nvmcp/internal/slo"
)

// Source is the set of run surfaces the server reads. Every field degrades
// gracefully: nil Obs (tools that drive many short-lived simulations, like
// nvmcp-bench) turns /metrics into a 404 and zeroes the progress counters,
// nil Lineage turns lineage endpoints into 404s with a hint, and nil Status
// reports "running".
type Source struct {
	// Obs is the run's observability hub (metrics + progress).
	Obs *obs.Observer
	// Lineage is the run's causal chunk tracer (nil when disabled).
	Lineage *lineage.Tracer
	// SLO is the run's flight recorder (nil when disabled).
	SLO *slo.Recorder
	// Drift is the run's model-drift observatory (nil when disabled).
	Drift *drift.Observatory
	// Tool names the binary serving (e.g. "nvmcp-sim").
	Tool string
	// Status, when set, reports the run phase ("running", "done", ...).
	Status func() string
	// API, when set, is mounted under /api/ (the control plane's job
	// surface in serving mode; nil for plain batch-run introspection).
	API http.Handler
}

// Progress is the /progress response body.
type Progress struct {
	Tool   string `json:"tool"`
	Status string `json:"status"`
	// VirtualUS is the newest event's virtual timestamp in microseconds —
	// how far the simulated clock has advanced.
	VirtualUS int64 `json:"virtual_us"`
	// Events is the total event count published so far.
	Events int `json:"events"`
	// EventsPerSec is the recent event rate in host wall time, derived from
	// a shared monotonic sample history (0 on the first poll), so any number
	// of concurrent scrapers observe the same rate.
	EventsPerSec float64 `json:"events_per_sec"`
	// Epoch is the current recovery epoch (lineage tracer; 0 without one).
	Epoch int `json:"epoch"`
	// Violations counts lineage invariant breaches so far.
	Violations int `json:"violations"`
}

// rateLookback bounds how far back the rate computation reaches: the rate is
// measured against the oldest retained sample, and samples age out once a
// newer one is itself lookback-old. Heavy scraping therefore converges on a
// smoothed ~lookback-wide window instead of poller-pair deltas.
const rateLookback = 10 * time.Second

// maxRateSamples hard-caps the sample history so pathological scrape storms
// cannot grow it without bound inside one lookback window.
const maxRateSamples = 256

// rateSample is one (wall time, cumulative events) observation.
type rateSample struct {
	t      time.Time
	events int
}

// Server wraps the HTTP listener for clean shutdown.
type Server struct {
	http  *http.Server
	addr  net.Addr
	errc  chan error
	drain time.Duration

	// now is the wall clock (swapped for a fake in tests).
	now func() time.Time

	mu sync.Mutex
	// samples is the shared monotonic poll history the event rate derives
	// from. Every poller appends and reads the same series, so concurrent
	// scrapers cannot steal each other's baseline (the old single
	// lastPoll/lastEvents pair handed one scraper ~2x the rate and the
	// other ~0).
	samples []rateSample
}

func newServer() *Server {
	return &Server{now: time.Now, drain: drainTimeout}
}

func (s *Server) mux(src Source) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if src.Obs == nil {
			http.Error(w, "no metrics registry attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := src.Obs.Registry().WriteProm(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /progress", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.progress(src))
	})
	mux.HandleFunc("GET /lineage", func(w http.ResponseWriter, r *http.Request) {
		if src.Lineage == nil {
			http.Error(w, "lineage tracing disabled (run with -lineage)", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{
			"chunks":     src.Lineage.Chunks(),
			"violations": src.Lineage.Violations(),
			"summary":    src.Lineage.Summary(),
		})
	})
	// Chunk keys contain slashes ("rank3/ions"), so the route needs the
	// trailing-wildcard form.
	mux.HandleFunc("GET /lineage/{chunk...}", func(w http.ResponseWriter, r *http.Request) {
		if src.Lineage == nil {
			http.Error(w, "lineage tracing disabled (run with -lineage)", http.StatusNotFound)
			return
		}
		chunk := r.PathValue("chunk")
		h, ok := src.Lineage.History(chunk)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown chunk %q (GET /lineage lists keys)", chunk),
				http.StatusNotFound)
			return
		}
		writeJSON(w, h)
	})
	mux.HandleFunc("GET /slo", func(w http.ResponseWriter, r *http.Request) {
		if src.SLO == nil {
			http.Error(w, "SLO recording disabled (run with -slo)", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{
			"summary":    src.SLO.Summary(),
			"objectives": src.SLO.Objectives(),
			"violations": src.SLO.Violations(),
		})
	})
	mux.HandleFunc("GET /slo/timeseries", func(w http.ResponseWriter, r *http.Request) {
		if src.SLO == nil {
			http.Error(w, "SLO recording disabled (run with -slo)", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{
			"series":  slo.SeriesNames(),
			"windows": src.SLO.Windows(),
		})
	})
	mux.HandleFunc("GET /drift", func(w http.ResponseWriter, r *http.Request) {
		if src.Drift == nil {
			http.Error(w, "drift recording disabled (run with -drift)", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{
			"baseline":     src.Drift.Baseline(),
			"summary":      src.Drift.Summary(),
			"phase_shifts": src.Drift.PhaseShifts(),
			"violations":   src.Drift.Violations(),
		})
	})
	mux.HandleFunc("GET /drift/timeseries", func(w http.ResponseWriter, r *http.Request) {
		if src.Drift == nil {
			http.Error(w, "drift recording disabled (run with -drift)", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{
			"window_us": src.Drift.WindowDuration().Microseconds(),
			"windows":   src.Drift.Windows(),
		})
	})
	if src.API != nil {
		mux.Handle("/api/", src.API)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) progress(src Source) Progress {
	p := Progress{Tool: src.Tool, Status: "running"}
	if src.Obs != nil {
		p.VirtualUS, p.Events = src.Obs.Progress()
	}
	if src.Status != nil {
		p.Status = src.Status()
	}
	if src.Lineage != nil {
		p.Epoch = src.Lineage.Epoch()
		p.Violations = src.Lineage.ViolationCount()
	}
	p.EventsPerSec = s.observeRate(p.Events)
	return p
}

// observeRate folds one poll into the shared sample history and returns the
// event rate against the oldest retained sample. The history is monotonic
// and shared by all pollers: a new scraper joining mid-run measures against
// the same baseline as everyone else instead of resetting it.
func (s *Server) observeRate(events int) float64 {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Age out leading samples: once the *next* sample is itself old enough
	// to anchor the lookback, the current base carries no extra information.
	for len(s.samples) > 1 &&
		(now.Sub(s.samples[1].t) >= rateLookback || len(s.samples) > maxRateSamples) {
		s.samples = s.samples[1:]
	}
	rate := 0.0
	if len(s.samples) > 0 {
		base := s.samples[0]
		if dt := now.Sub(base.t).Seconds(); dt > 0 {
			rate = float64(events-base.events) / dt
		}
	}
	s.samples = append(s.samples, rateSample{t: now, events: events})
	return rate
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Serving limits. ReadHeaderTimeout bounds how long a connection may dribble
// its request head (the slowloris hole a resident control plane cannot
// leave open); WriteTimeout must outlast the longest legitimate response —
// /debug/pprof/profile blocks for its full sample window (30s by default) —
// so it is generous rather than tight. drainTimeout is how long Close waits
// for in-flight requests before dropping the stragglers.
const (
	readHeaderTimeout = 5 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 5 * time.Second
)

// Serve starts the introspection server on addr (e.g. ":8080" or
// "127.0.0.1:0") in a background goroutine and returns once the listener is
// bound, so callers can print the resolved address before the run starts.
// Asynchronous serve failures are published on ServeErr.
func Serve(addr string, src Source) (*Server, error) {
	s := newServer()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: listen %s: %w", addr, err)
	}
	s.addr = ln.Addr()
	s.http = &http.Server{
		Handler:           s.mux(src),
		ReadHeaderTimeout: readHeaderTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	s.errc = make(chan error, 1)
	go func() {
		if err := s.http.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.errc <- fmt.Errorf("introspect: serve %s: %w", s.addr, err)
		}
		close(s.errc)
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.addr }

// ServeErr reports asynchronous failures from the serve loop. The channel
// closes when the loop exits; a clean shutdown closes it without a value.
func (s *Server) ServeErr() <-chan error { return s.errc }

// Close gracefully shuts the server down: the listener closes immediately,
// in-flight requests get a drain deadline to finish, and only stragglers
// past the deadline are dropped.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.drain)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		// The drain deadline expired with requests still in flight: fall
		// back to the hard drop, but report that the drain was cut short.
		if cerr := s.http.Close(); cerr != nil && cerr != http.ErrServerClosed {
			return cerr
		}
		return fmt.Errorf("introspect: drain cut short after %v: %w", s.drain, err)
	}
	return nil
}
