package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/obs"
)

// RequestIDHeader carries the request ID: clients may supply one for
// end-to-end correlation; otherwise the server generates one. The ID is
// always echoed on the response and tags every flight-recorder event
// and trace produced while serving the request.
const RequestIDHeader = "X-Suri-Request-Id"

// ServerOptions configure the HTTP front-end (cmd/surid).
type ServerOptions struct {
	// MaxInflight caps concurrent /rewrite requests; excess requests
	// are rejected with 503 instead of queueing behind the pool's
	// backpressure (fail fast at the edge, bound latency). <= 0 means
	// 4× the pool's worker count.
	MaxInflight int

	// MaxBodyBytes bounds the request body (default 64 MiB); larger
	// uploads are rejected with 413.
	MaxBodyBytes int64

	// RequestTimeout bounds each /rewrite request's wall clock. The
	// deadline is wired into the pipeline as a cancellation budget, so
	// an expired request stops mid-CFG instead of finishing for nobody.
	// <= 0 means no timeout. A per-request ?timeout= can only tighten
	// it, never extend it.
	RequestTimeout time.Duration

	// Budget is the default per-request pipeline budget. Per-request
	// ?budget-insts= / ?budget-steps= query parameters override single
	// fields.
	Budget harden.Budget

	// EnablePprof mounts the stdlib net/http/pprof handlers under
	// /debug/pprof/. Off by default: profiling endpoints expose heap
	// contents and should only face operators.
	EnablePprof bool

	// ErrorLog, when set, receives a dump of the failing request's
	// flight-recorder events whenever a /rewrite request ends in error —
	// the crash-forensics path. Nil disables dumping.
	ErrorLog *log.Logger
}

// RewriteResponse is the JSON body of a successful POST /rewrite: the
// rewritten ELF image (base64 under encoding/json), the pipeline
// statistics, and whether the artifact came from the cache. Validated
// rewrites (?validate=1) additionally carry the verdict, the attempt
// count, and — for anything below "validated" — the reason. With
// ?trace=1 the request's span tree rides along under "trace".
type RewriteResponse struct {
	CacheHit  bool            `json:"cache_hit"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Source    string          `json:"source,omitempty"`
	Worker    string          `json:"worker,omitempty"`
	Stats     core.Stats      `json:"stats"`
	Verdict   string          `json:"verdict,omitempty"`
	Attempts  int             `json:"attempts,omitempty"`
	Reason    string          `json:"reason,omitempty"`
	Trace     json.RawMessage `json:"trace,omitempty"`
	Binary    []byte          `json:"binary"`
}

// HealthResponse is the GET /healthz body: enough service state for a
// load balancer (status, drain) and a human (uptime, utilization,
// cache efficacy) in one deterministic JSON object.
type HealthResponse struct {
	Status        string  `json:"status"` // "ok" | "draining"
	GoVersion     string  `json:"go_version"`
	UptimeNS      int64   `json:"uptime_ns"`
	Workers       int     `json:"workers"`
	Inflight      int     `json:"inflight"`
	MaxInflight   int     `json:"max_inflight"`
	Requests      int64   `json:"requests"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	FlightEvents  uint64  `json:"flight_events"`
	Draining      bool    `json:"draining"`
}

// Server is the surid HTTP API over a pool:
//
//	POST /rewrite       binary in -> RewriteResponse out
//	                    query: ignore-ehframe=1, allow-noncet=1,
//	                           validate=1, trace=1, timeout=<duration>,
//	                           budget-insts=<n>, budget-steps=<n>,
//	                           instrument=<pass,pass,...>
//	GET  /healthz       structured liveness/readiness (503 once draining)
//	GET  /metrics       Prometheus text exposition (?format=text for the
//	                    human-readable obs dump)
//	GET  /debug/flight  last-N flight-recorder events (?n=, ?req=)
//	GET  /debug/pprof/  stdlib profiling, when ServerOptions.EnablePprof
//
// The server shares the pool's collector, so farm.*, suri.*, and
// http-layer series all surface on one /metrics page, and every
// request's events land in the same flight recorder. Request IDs,
// admission, Retry-After and drain come from the Front it shares with
// the fleet coordinator.
type Server struct {
	pool  *Pool
	opts  ServerOptions
	mux   *http.ServeMux
	front *Front

	requests *obs.Counter
	rejected *obs.Counter
}

// NewServer builds the surid HTTP front-end over a pool.
func NewServer(p *Pool, opts ServerOptions) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4 * p.Workers()
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	reg := p.Obs().Metrics()
	s := &Server{
		pool:  p,
		opts:  opts,
		front: NewFront("r", opts.MaxInflight, p.Obs(), "farm.http_inflight", "farm.http_request_ns", "farm.http_errors"),
		// Pre-register the HTTP series so a fresh /metrics export is
		// stable.
		requests: reg.Counter("farm.http_requests"),
		rejected: reg.Counter("farm.http_rejected"),
	}
	// Pre-register the replication series too (fleet successor
	// replication pushes into PUT /cache).
	reg.Counter("farm.replica_stores")
	reg.Counter("farm.replica_rejected")

	mux := http.NewServeMux()
	mux.HandleFunc("POST /rewrite", s.handleRewrite)
	mux.HandleFunc("PUT /cache", s.handleCachePush)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", obs.MetricsHandler(reg))
	mux.Handle("GET /debug/flight", obs.FlightHandler(p.Obs().Flight()))
	if opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// NewHandler builds the surid HTTP API over a pool. Kept for callers
// that only need an http.Handler; NewServer exposes drain control.
func NewHandler(p *Pool, opts ServerOptions) http.Handler {
	return NewServer(p, opts)
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SetDraining flips the drain flag /healthz reports (see
// Front.SetDraining); the pool drains in-flight work during Shutdown.
func (s *Server) SetDraining(v bool) { s.front.SetDraining(v) }

func (s *Server) handleRewrite(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	rc, err := s.front.Serve(w, r, s.serveRewrite)
	if err != nil && s.opts.ErrorLog != nil {
		// Dump-on-error: replay the failing request's retained events so
		// the post-mortem is in the log, not lost with the ring.
		for _, e := range rc.Flight().RequestEvents(rc.Request()) {
			s.opts.ErrorLog.Printf("flight %s seq=%d kind=%s name=%s detail=%q dur=%d",
				e.Req, e.Seq, e.Kind, e.Name, e.Detail, e.Dur)
		}
	}
}

// serveRewrite runs one POST /rewrite request to completion, writing
// the response itself; it returns the status and error for the caller's
// accounting (err == nil means 200 was written).
func (s *Server) serveRewrite(w http.ResponseWriter, r *http.Request, rc *obs.Collector) (int, error) {
	fail := func(status int, err error) (int, error) {
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", s.front.RetryAfter(s.pool.Workers()))
		}
		writeError(w, status, err)
		return status, err
	}
	if _, ok := s.front.Admit(); !ok {
		s.rejected.Inc()
		return fail(http.StatusServiceUnavailable, errors.New("farm: too many in-flight rewrites"))
	}
	defer s.front.Release()
	bin, params, status, err := ReadRewrite(w, r, s.opts.MaxBodyBytes, s.opts.Budget, s.opts.RequestTimeout)
	if err != nil {
		return fail(status, err)
	}
	copts := params.Options
	copts.Obs = rc
	ctx := r.Context()
	if params.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, params.Timeout)
		defer cancel()
	}

	var resp RewriteResponse
	if params.Validate {
		vres, err := s.pool.RewriteValidated(ctx, bin, core.ValidateOptions{Options: copts})
		if err != nil {
			return fail(rewriteStatus(r, err), err)
		}
		resp = RewriteResponse{
			Stats:    vres.Stats,
			Verdict:  string(vres.Verdict),
			Attempts: vres.Attempts,
			Reason:   vres.Reason,
			Binary:   vres.Binary,
		}
	} else {
		res, err := s.pool.Rewrite(ctx, bin, copts)
		if err != nil {
			return fail(rewriteStatus(r, err), err)
		}
		resp = RewriteResponse{
			CacheHit: res.CacheHit, Coalesced: res.Coalesced,
			Stats: res.Stats, Binary: res.Binary,
		}
	}
	if params.Trace {
		if tj, jerr := rc.Trace().JSON(); jerr == nil {
			resp.Trace = tj
		}
	}
	WriteJSON(w, http.StatusOK, resp)
	return http.StatusOK, nil
}

// handleCachePush is the replication receive path: the fleet
// coordinator PUTs a content-addressed artifact at the ring successors
// of the worker that executed it, so this worker can serve the key as
// a cache hit if the primary dies. The envelope's checksum is verified
// before the store — a corrupt push is rejected and counted, never
// cached. Pushes are advisory: failure here costs a future recompute,
// not a request.
func (s *Server) handleCachePush(w http.ResponseWriter, r *http.Request) {
	reg := s.pool.Obs().Metrics()
	cache := s.pool.Cache()
	if cache == nil {
		writeError(w, http.StatusNotFound, errors.New("farm: no cache configured"))
		return
	}
	key, err := ParseKey(r.URL.Query().Get("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The envelope is JSON over a base64 binary plus checksum: allow
	// double the plain-binary bound.
	body, status, err := readBody(w, r, s.opts.MaxBodyBytes*2)
	if err != nil {
		writeError(w, status, err)
		return
	}
	var push PushArtifact
	if err := json.Unmarshal(body, &push); err != nil {
		reg.Counter("farm.replica_rejected").Inc()
		writeError(w, http.StatusBadRequest, fmt.Errorf("farm: bad replica envelope: %w", err))
		return
	}
	art, err := push.Verify()
	if err != nil {
		reg.Counter("farm.replica_rejected").Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := cache.Put(key, art); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	reg.Counter("farm.replica_stores").Inc()
	s.pool.Obs().Record(obs.Event{Kind: "farm", Name: "replica_store", Detail: key.String()[:12]})
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reg := s.pool.Obs().Metrics()
	hits := reg.Counter("farm.cache_hits").Value()
	misses := reg.Counter("farm.cache_misses").Value()
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	health, status := s.front.Health()
	WriteJSON(w, status, HealthResponse{
		Status:        health,
		GoVersion:     runtime.Version(),
		UptimeNS:      s.front.Uptime(),
		Workers:       s.pool.Workers(),
		Inflight:      s.front.Inflight(),
		MaxInflight:   s.opts.MaxInflight,
		Requests:      s.requests.Value(),
		CacheHits:     hits,
		CacheMisses:   misses,
		CacheHitRatio: ratio,
		FlightEvents:  s.pool.Obs().Flight().Total(),
		Draining:      s.front.Draining(),
	})
}

// rewriteStatus maps a pipeline failure to an HTTP status: 422 when the
// request (binary, budget, or timeout) is at fault, 503 when the server
// is shutting down or the client has already gone away.
func rewriteStatus(r *http.Request, err error) int {
	if errors.Is(err, ErrClosed) || r.Context().Err() != nil {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// writeError writes the farm's error body. The fallback verdict on
// budget and deadline errors is farm-only: only a worker runs the
// pipeline whose budget tripped, and the fleet passes its body through.
func writeError(w http.ResponseWriter, status int, err error) {
	resp := ErrorResponse{Error: err.Error(), Stage: core.Stage(err)}
	if errors.Is(err, harden.ErrBudget) || errors.Is(err, context.DeadlineExceeded) {
		resp.Verdict = string(core.VerdictFallback)
	}
	WriteJSON(w, status, resp)
}
