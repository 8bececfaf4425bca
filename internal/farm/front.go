package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/obs"
)

// DrainGrace is how long a draining daemon lets in-flight requests
// finish before it exits. It is also the Retry-After a draining front
// quotes and the cap on any other Retry-After.
const DrainGrace = 30 * time.Second

// Front is the HTTP serving state the surid Server and the surifleet
// Coordinator share: request IDs and per-request accounting, the
// in-flight count with its shed check, the Retry-After policy, and the
// drain flag /healthz reports.
type Front struct {
	prefix  string
	max     int64
	col     *obs.Collector
	clock   obs.Clock
	start   int64
	gauge   *obs.Gauge
	latency *obs.Histogram
	errors  *obs.Counter

	seq      atomic.Uint64
	inflight atomic.Int64
	draining atomic.Bool
}

// NewFront builds a front over col that mints request IDs as
// prefix+sequence and sheds requests past maxInflight in flight. The
// in-flight count, request latency and failed requests go to the
// named gauge, latency histogram and counter, registered here so a
// fresh /metrics export already carries them.
func NewFront(prefix string, maxInflight int, col *obs.Collector, inflight, latency, errors string) *Front {
	clock := col.Clock()
	if clock == nil {
		clock = obs.NewClock()
	}
	reg := col.Metrics()
	reg.Gauge(inflight).Set(0)
	return &Front{
		prefix: prefix, max: int64(maxInflight), col: col,
		clock: clock, start: clock.Now(),
		gauge: reg.Gauge(inflight), latency: reg.LatencyHistogram(latency), errors: reg.Counter(errors),
	}
}

// RequestID returns the client-supplied correlation ID, or mints one,
// and echoes it on the response.
func (f *Front) RequestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" {
		id = fmt.Sprintf("%s%06d", f.prefix, f.seq.Add(1))
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

// Serve runs one request under its ID. serve gets a view of the
// collector scoped to the request: a private trace over the shared
// registry and flight recorder, with events tagged by the ID. Serve
// then accounts the outcome: the latency, a failure, and a "request"
// flight event. It returns the scoped view and serve's error.
func (f *Front) Serve(w http.ResponseWriter, r *http.Request, serve func(http.ResponseWriter, *http.Request, *obs.Collector) (int, error)) (*obs.Collector, error) {
	rc := f.col.WithRequest(f.RequestID(w, r))
	t0 := f.clock.Now()
	status, err := serve(w, r, rc)
	dur := f.clock.Now() - t0
	f.latency.Observe(dur)
	outcome := "ok"
	if err != nil {
		f.errors.Inc()
		outcome = fmt.Sprintf("%d %s", status, err)
	}
	rc.Record(obs.Event{Kind: "request", Name: r.URL.Path, Detail: outcome, Dur: dur})
	return rc, err
}

// Uptime returns the nanoseconds since the front was built.
func (f *Front) Uptime() int64 { return f.clock.Now() - f.start }

// Admit takes an in-flight slot and returns the in-flight count that
// includes it. It returns false, holding no slot, when that count is
// past the shed threshold. An admitted request calls Release when done.
func (f *Front) Admit() (int64, bool) {
	n := f.inflight.Add(1)
	if n > f.max {
		f.inflight.Add(-1)
		return n, false
	}
	f.gauge.Set(n)
	return n, true
}

// Release returns a slot taken by Admit.
func (f *Front) Release() { f.gauge.Set(f.inflight.Add(-1)) }

// Inflight returns the number of admitted requests not yet released.
func (f *Front) Inflight() int { return int(f.inflight.Load()) }

// RetryAfter is the Retry-After value for a 503: the backlog per live
// worker plus one second, since the backlog drains at roughly one job
// per worker per job latency. live is the number of workers that can
// take traffic. While draining it is pinned to DrainGrace: capacity
// here will never free, and the client should re-resolve its balancer
// instead.
func (f *Front) RetryAfter(live int) string {
	limit := int(DrainGrace / time.Second)
	if f.draining.Load() {
		return strconv.Itoa(limit)
	}
	return strconv.Itoa(min(1+f.Inflight()/max(live, 1), limit))
}

// SetDraining flips the drain flag. A draining front keeps serving
// requests but answers health probes with 503, so load balancers stop
// routing new traffic to it.
func (f *Front) SetDraining(v bool) { f.draining.Store(v) }

// Draining reports the drain flag.
func (f *Front) Draining() bool { return f.draining.Load() }

// Health returns the /healthz status word and HTTP status: "ok" and
// 200, or "draining" and 503 once draining.
func (f *Front) Health() (string, int) {
	if f.Draining() {
		return "draining", http.StatusServiceUnavailable
	}
	return "ok", http.StatusOK
}

// ErrorResponse is the JSON body of a failed request. Stage names the
// pipeline stage that died when the failure was a stage error, and
// Verdict is "fallback" for budget/timeout exhaustion (what a validated
// rewrite of the same request would have concluded).
type ErrorResponse struct {
	Error   string `json:"error"`
	Stage   string `json:"stage,omitempty"`
	Verdict string `json:"verdict,omitempty"`
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// ReadRewrite reads a POST /rewrite request: the body, at most limit
// bytes, and the query, over the server's default budget and timeout.
// On failure the status is 413 for an oversized body, 422 when a
// pipeline stage rejects the query (an unknown instrumentation pass),
// and 400 otherwise.
func ReadRewrite(w http.ResponseWriter, r *http.Request, limit int64, budget harden.Budget, timeout time.Duration) ([]byte, Params, int, error) {
	bin, status, err := readBody(w, r, limit)
	if err != nil {
		return nil, Params{}, status, err
	}
	params, err := ParseQuery(r.URL.Query(), budget, timeout)
	if err != nil {
		status := http.StatusBadRequest
		var se *core.StageError
		if errors.As(err, &se) {
			status = http.StatusUnprocessableEntity
		}
		return nil, Params{}, status, err
	}
	return bin, params, http.StatusOK, nil
}

// readBody reads at most limit bytes of the request body. On failure
// the status is 413 past the limit and 400 otherwise.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	return body, http.StatusOK, nil
}

// ServeAndDrain serves h on ln until SIGINT, SIGTERM or the end of
// ctx, then drains: setDraining(true) flips /healthz to 503 so load
// balancers stop routing here, in-flight requests get DrainGrace to
// finish, and closeFn releases what h used once the server has
// stopped. name prefixes the drain log line.
func ServeAndDrain(ctx context.Context, name string, ln net.Listener, h http.Handler, setDraining func(bool), closeFn func()) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer closeFn()
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	log.Printf("%s: draining", name)
	setDraining(true)
	shutCtx, cancel := context.WithTimeout(context.Background(), DrainGrace)
	defer cancel()
	err := srv.Shutdown(shutCtx)
	<-served // http.ErrServerClosed once Shutdown began
	return err
}
