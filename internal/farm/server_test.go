package farm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/harden"
	"repro/internal/obs"
	"repro/internal/prog"
)

func newTestServer(t *testing.T, cfg farm.Config, opts farm.ServerOptions) (*farm.Pool, *httptest.Server) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	p := farm.New(cfg)
	srv := httptest.NewServer(farm.NewHandler(p, opts))
	t.Cleanup(func() {
		srv.Close()
		p.Close()
	})
	return p, srv
}

// goldenCounterNames are the farm counters pre-registered on a fresh
// surid server, in export (sorted) order.
var goldenCounterNames = []string{
	"farm.cache_disk_hits", "farm.cache_hits", "farm.cache_misses",
	"farm.cache_write_errors", "farm.coalesced", "farm.http_errors", "farm.http_rejected",
	"farm.http_requests", "farm.jobs_canceled", "farm.jobs_completed",
	"farm.jobs_failed", "farm.jobs_submitted", "farm.panics",
	"farm.replica_rejected", "farm.replica_stores",
	"farm.verdict_degraded",
	"farm.verdict_fallback", "farm.verdict_validated",
}

// goldenPrometheus renders the expected /metrics payload of a fresh
// surid server (Workers 2, QueueDepth 4, nothing submitted yet): every
// farm series pre-registered, names sanitized to the Prometheus
// grammar, all counters zero, gauges reflecting the pool configuration,
// and the all-zero request-latency histogram with one cumulative bucket
// per obs.LatencyBounds entry.
func goldenPrometheus() string {
	var b strings.Builder
	prom := func(name string) string { return strings.ReplaceAll(name, ".", "_") }
	for _, name := range goldenCounterNames {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s 0\n", prom(name), prom(name))
	}
	fmt.Fprintf(&b, "# TYPE farm_http_inflight gauge\nfarm_http_inflight 0\n")
	fmt.Fprintf(&b, "# TYPE farm_queue_depth gauge\nfarm_queue_depth 4\n")
	fmt.Fprintf(&b, "# TYPE farm_workers gauge\nfarm_workers 2\n")
	fmt.Fprintf(&b, "# TYPE farm_http_request_ns histogram\n")
	for _, bound := range obs.LatencyBounds {
		fmt.Fprintf(&b, "farm_http_request_ns_bucket{le=\"%d\"} 0\n", bound)
	}
	b.WriteString("farm_http_request_ns_bucket{le=\"+Inf\"} 0\n")
	b.WriteString("farm_http_request_ns_sum 0\nfarm_http_request_ns_count 0\n")
	return b.String()
}

func TestServerGoldenMetricsAndHealthz(t *testing.T) {
	_, srv := newTestServer(t, farm.Config{Workers: 2, QueueDepth: 4}, farm.ServerOptions{})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health farm.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("healthz Content-Type = %q", ct)
	}
	if health.Status != "ok" || health.Draining {
		t.Fatalf("healthz: %+v, want status ok, not draining", health)
	}
	if health.GoVersion != runtime.Version() || health.Workers != 2 || health.MaxInflight != 8 {
		t.Fatalf("healthz fields: %+v", health)
	}
	if health.UptimeNS < 0 || health.Inflight != 0 || health.Requests != 0 {
		t.Fatalf("healthz gauges: %+v", health)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Fatalf("metrics Content-Type = %q, want %q", ct, obs.PrometheusContentType)
	}
	if string(body) != goldenPrometheus() {
		t.Fatalf("fresh /metrics drifted from golden:\ngot:\n%s\nwant:\n%s", body, goldenPrometheus())
	}

	// The human-readable obs dump stays reachable behind ?format=text.
	resp, err = http.Get(srv.URL + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(body), "counters:\n") || !strings.Contains(string(body), "farm.http_requests") {
		t.Fatalf("?format=text payload unexpected:\n%s", body)
	}

	// Wrong method on a known path must not be routed.
	resp, err = http.Get(srv.URL + "/rewrite")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /rewrite: status %d, want 405", resp.StatusCode)
	}
}

// TestServerDrainTransition: SetDraining flips /healthz from 200/"ok"
// to 503/"draining" and back without interrupting request serving —
// the handoff a load balancer needs during a rolling restart.
func TestServerDrainTransition(t *testing.T) {
	p := farm.New(farm.Config{Workers: 1, Obs: obs.New()})
	server := farm.NewServer(p, farm.ServerOptions{})
	srv := httptest.NewServer(server)
	t.Cleanup(func() {
		srv.Close()
		p.Close()
	})

	get := func() (int, farm.HealthResponse) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h farm.HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	if code, h := get(); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("fresh server: %d %q, want 200 ok", code, h.Status)
	}
	server.SetDraining(true)
	code, h := get()
	if code != http.StatusServiceUnavailable || h.Status != "draining" || !h.Draining {
		t.Fatalf("draining server: %d %+v, want 503 draining", code, h)
	}
	// A draining server still serves (the pool drains in-flight work
	// during Shutdown; health is advisory for the balancer only).
	resp, err := http.Post(srv.URL+"/rewrite", "application/octet-stream",
		bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("draining POST /rewrite: status %d, want 422", resp.StatusCode)
	}
	server.SetDraining(false)
	if code, h := get(); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("undrained server: %d %q, want 200 ok", code, h.Status)
	}
}

// testBinary compiles one small CET/PIE benchmark program.
func testBinary(t *testing.T) []byte {
	t.Helper()
	p := prog.Suites(0.03)[0].Programs[0]
	bin, err := cc.Compile(p.Module, cc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func postRewrite(t *testing.T, url string, bin []byte) (*http.Response, farm.RewriteResponse) {
	t.Helper()
	resp, err := http.Post(url+"/rewrite", "application/octet-stream", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out farm.RewriteResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestServerRewriteRoundTrip: a POST /rewrite rewrites a real binary;
// a second identical POST is served from the cache — hit counter up,
// body byte-identical.
func TestServerRewriteRoundTrip(t *testing.T) {
	col := obs.New()
	cache, err := farm.NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	p, srv := newTestServer(t, farm.Config{Workers: 2, Cache: cache, Obs: col}, farm.ServerOptions{})
	bin := testBinary(t)

	resp, first := postRewrite(t, srv.URL, bin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST: status %d", resp.StatusCode)
	}
	if first.CacheHit {
		t.Fatal("first rewrite claims a cache hit")
	}
	if len(first.Binary) == 0 || first.Stats.Blocks == 0 {
		t.Fatalf("empty result: %d bytes, %d blocks", len(first.Binary), first.Stats.Blocks)
	}

	reg := p.Obs().Metrics()
	hitsBefore := reg.Counter("farm.cache_hits").Value()
	resp, second := postRewrite(t, srv.URL, bin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second POST: status %d", resp.StatusCode)
	}
	if !second.CacheHit {
		t.Fatal("second identical rewrite was not served from cache")
	}
	if got := reg.Counter("farm.cache_hits").Value(); got != hitsBefore+1 {
		t.Fatalf("farm.cache_hits = %d, want %d", got, hitsBefore+1)
	}
	if !bytes.Equal(first.Binary, second.Binary) {
		t.Fatal("cached rewrite is not byte-identical")
	}
	if first.Stats != second.Stats {
		t.Fatalf("cached stats differ: %+v vs %+v", first.Stats, second.Stats)
	}
}

// TestServerRejectsBadBinary: garbage input fails in the elf stage and
// is the client's fault (422), with the stage name surfaced.
func TestServerRejectsBadBinary(t *testing.T) {
	_, srv := newTestServer(t, farm.Config{Workers: 1}, farm.ServerOptions{})
	resp, err := http.Post(srv.URL+"/rewrite", "application/octet-stream",
		bytes.NewReader([]byte("not an elf")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
		Stage string `json:"stage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Stage != "elf" {
		t.Fatalf("stage = %q (error %q), want \"elf\"", e.Stage, e.Error)
	}
}

// TestServerRejectsOversizedBody: a body past MaxBodyBytes is cut off by
// http.MaxBytesReader and rejected with 413, not read to completion.
func TestServerRejectsOversizedBody(t *testing.T) {
	_, srv := newTestServer(t, farm.Config{Workers: 1},
		farm.ServerOptions{MaxBodyBytes: 1 << 10})
	resp, err := http.Post(srv.URL+"/rewrite", "application/octet-stream",
		bytes.NewReader(make([]byte, 1<<20)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestServerBudgetExceeded: a request whose per-request budget is too
// small for the binary dies in the cfg stage; the response is 422 and
// carries both the stage and the fallback verdict.
func TestServerBudgetExceeded(t *testing.T) {
	_, srv := newTestServer(t, farm.Config{Workers: 1}, farm.ServerOptions{})
	bin := testBinary(t)
	resp, err := http.Post(srv.URL+"/rewrite?budget-insts=50", "application/octet-stream",
		bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var e struct {
		Error   string `json:"error"`
		Stage   string `json:"stage"`
		Verdict string `json:"verdict"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Stage != "cfg" || e.Verdict != "fallback" {
		t.Fatalf("stage = %q, verdict = %q (error %q); want cfg/fallback", e.Stage, e.Verdict, e.Error)
	}
}

// TestServerBadQueryParams: malformed budget/timeout values are the
// client's fault and rejected up front with 400.
func TestServerBadQueryParams(t *testing.T) {
	_, srv := newTestServer(t, farm.Config{Workers: 1}, farm.ServerOptions{})
	for _, q := range []string{"budget-insts=-1", "budget-insts=x", "budget-steps=0", "timeout=soon"} {
		resp, err := http.Post(srv.URL+"/rewrite?"+q, "application/octet-stream",
			bytes.NewReader([]byte("x")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestServerValidatedRewrite: ?validate=1 runs the guarded pipeline; a
// clean binary comes back with the validated verdict and garbage comes
// back 200 with the fallback verdict and its own bytes (graceful
// degradation is a success at the HTTP layer, not an error).
func TestServerValidatedRewrite(t *testing.T) {
	col := obs.New()
	p, srv := newTestServer(t, farm.Config{Workers: 2, Obs: col}, farm.ServerOptions{})
	bin := testBinary(t)

	resp, err := http.Post(srv.URL+"/rewrite?validate=1", "application/octet-stream",
		bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	var out farm.RewriteResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("validated POST: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Verdict != "validated" || out.Attempts != 1 || len(out.Binary) == 0 {
		t.Fatalf("verdict = %q attempts = %d len = %d; want validated/1", out.Verdict, out.Attempts, len(out.Binary))
	}
	if got := p.Obs().Metrics().Counter("farm.verdict_validated").Value(); got != 1 {
		t.Fatalf("farm.verdict_validated = %d, want 1", got)
	}

	junk := []byte("not an elf")
	resp, err = http.Post(srv.URL+"/rewrite?validate=1", "application/octet-stream",
		bytes.NewReader(junk))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback POST: status %d", resp.StatusCode)
	}
	out = farm.RewriteResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Verdict != "fallback" || out.Reason == "" || !bytes.Equal(out.Binary, junk) {
		t.Fatalf("junk verdict = %q reason = %q; want fallback with original bytes", out.Verdict, out.Reason)
	}
	if got := p.Obs().Metrics().Counter("farm.verdict_fallback").Value(); got != 1 {
		t.Fatalf("farm.verdict_fallback = %d, want 1", got)
	}
}

// TestServerInstrumentedRewrite: ?instrument= applies standard passes;
// the instrumented artifact caches under its own content address (a
// plain rewrite of the same binary is neither hit nor poisoned), and an
// unknown pass name is rejected up front as an instrument-stage 422.
func TestServerInstrumentedRewrite(t *testing.T) {
	cache, err := farm.NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	_, srv := newTestServer(t, farm.Config{Workers: 2, Cache: cache}, farm.ServerOptions{})
	bin := testBinary(t)

	resp, plain := postRewrite(t, srv.URL, bin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain POST: status %d", resp.StatusCode)
	}

	post := func() (*http.Response, farm.RewriteResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/rewrite?instrument=coverage,shadowstack",
			"application/octet-stream", bytes.NewReader(bin))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out farm.RewriteResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp, out
	}
	resp, first := post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("instrumented POST: status %d", resp.StatusCode)
	}
	if first.CacheHit {
		t.Fatal("instrumented rewrite hit the plain artifact's cache entry")
	}
	if first.Stats.InstrPasses != 2 || first.Stats.InstrInserted == 0 || first.Stats.InstrPayloadBytes == 0 {
		t.Fatalf("instr stats missing: %+v", first.Stats)
	}
	if bytes.Equal(first.Binary, plain.Binary) {
		t.Fatal("instrumented binary is byte-identical to the plain rewrite")
	}
	resp, second := post()
	if resp.StatusCode != http.StatusOK || !second.CacheHit {
		t.Fatalf("identical instrumented rewrite not served from cache (status %d, hit %v)",
			resp.StatusCode, second.CacheHit)
	}
	if !bytes.Equal(first.Binary, second.Binary) {
		t.Fatal("cached instrumented artifact not byte-identical")
	}

	resp, err = http.Post(srv.URL+"/rewrite?instrument=bogus", "application/octet-stream",
		bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown pass: status %d, want 422", resp.StatusCode)
	}
	var e struct {
		Stage string `json:"stage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Stage != "instrument" {
		t.Fatalf("unknown pass stage = %q, want \"instrument\"", e.Stage)
	}
}

// TestServerMaxInflight: with the single worker wedged and one request
// holding the only inflight slot, the next request is rejected with
// 503 instead of queueing.
func TestServerMaxInflight(t *testing.T) {
	col := obs.New()
	p, srv := newTestServer(t,
		farm.Config{Workers: 1, QueueDepth: 1, Obs: col},
		farm.ServerOptions{MaxInflight: 1})

	// Wedge the worker so the HTTP request parks in the pool queue.
	gate := make(chan struct{})
	blocker, err := p.Submit(context.Background(), "blocker", func(ctx context.Context) (any, error) {
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/rewrite", "application/octet-stream",
			bytes.NewReader([]byte("junk")))
		if err == nil {
			resp.Body.Close()
		}
		firstDone <- err
	}()

	// Wait until the first request holds the inflight slot.
	inflight := col.Metrics().Gauge("farm.http_inflight")
	deadline := time.Now().Add(5 * time.Second)
	for inflight.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the inflight slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(srv.URL+"/rewrite", "application/octet-stream",
		bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server: status %d, want 503", resp.StatusCode)
	}
	if got := col.Metrics().Counter("farm.http_rejected").Value(); got != 1 {
		t.Fatalf("farm.http_rejected = %d, want 1", got)
	}

	close(gate)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRequestTimeoutSkipsQueuedJob: ?timeout= is the farm's one
// deadline. With the only worker wedged, a request whose deadline
// passes while its job waits in the queue answers 422 with the
// fallback verdict, and the worker later skips the job: it is counted
// canceled and the pipeline never runs.
func TestRequestTimeoutSkipsQueuedJob(t *testing.T) {
	col := obs.New()
	p, srv := newTestServer(t, farm.Config{Workers: 1, Obs: col}, farm.ServerOptions{})
	gate := make(chan struct{})
	blocker, err := p.Submit(context.Background(), "blocker", func(context.Context) (any, error) {
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/rewrite?timeout=20ms", "application/octet-stream",
		bytes.NewReader(testBinary(t)))
	if err != nil {
		t.Fatal(err)
	}
	var e farm.ErrorResponse
	derr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || e.Verdict != "fallback" ||
		!strings.Contains(e.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("status %d, body %+v; want 422, fallback verdict, deadline exceeded", resp.StatusCode, e)
	}

	close(gate)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg := col.Metrics()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("farm.jobs_canceled").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the timed-out job was never taken off the queue")
		}
		time.Sleep(time.Millisecond)
	}
	// The worker's one run finished the blocker; a pipeline started on a
	// done context would have failed with the time budget instead.
	if got := reg.Counter("farm.jobs_completed").Value(); got != 1 {
		t.Fatalf("farm.jobs_completed = %d, want 1 (the blocker only)", got)
	}
	if got := reg.Counter("farm.jobs_failed").Value(); got != 0 {
		t.Fatalf("farm.jobs_failed = %d, want 0", got)
	}
	if got := reg.Counter("suri.rewrites").Value(); got != 0 {
		t.Fatalf("suri.rewrites = %d, want 0", got)
	}
}

// TestServerRequestIDsAndTrace: the server echoes a client-supplied
// X-Suri-Request-Id (or mints one), and ?trace=1 attaches the
// request-scoped span tree — root "rewrite" with the Fig. 4 stages as
// children — to the response.
func TestServerRequestIDsAndTrace(t *testing.T) {
	_, srv := newTestServer(t, farm.Config{Workers: 2, Obs: obs.New()}, farm.ServerOptions{})
	bin := testBinary(t)

	req, err := http.NewRequest("POST", srv.URL+"/rewrite?trace=1", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(farm.RequestIDHeader, "req-abc")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced POST: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(farm.RequestIDHeader); got != "req-abc" {
		t.Fatalf("request ID not echoed: %q", got)
	}
	var out farm.RewriteResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Trace) == 0 {
		t.Fatal("?trace=1 response carries no trace")
	}
	var spans []struct {
		Name     string `json:"name"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	if err := json.Unmarshal(out.Trace, &spans); err != nil {
		t.Fatalf("trace is not a span forest: %v\n%s", err, out.Trace)
	}
	if len(spans) != 1 || spans[0].Name != "rewrite" {
		t.Fatalf("trace roots = %+v, want single \"rewrite\" root", spans)
	}
	stages := map[string]bool{}
	for _, c := range spans[0].Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"cfg", "serialize", "repair", "symbolize", "emit"} {
		if !stages[want] {
			t.Fatalf("trace missing stage span %q (got %v)", want, stages)
		}
	}

	// An untraced request omits the span tree and gets a server-minted ID.
	resp2, out2 := postRewrite(t, srv.URL, bin)
	if len(out2.Trace) != 0 {
		t.Fatal("untraced response carries a trace")
	}
	if got := resp2.Header.Get(farm.RequestIDHeader); got == "" {
		t.Fatal("server did not mint a request ID")
	}
}

// TestServerFlightEndpoint: with a flight recorder enabled, /debug/flight
// replays the retained events — including the stage_error of a
// fault-injected pipeline failure, tagged with the failing request's ID.
func TestServerFlightEndpoint(t *testing.T) {
	col := obs.New().EnableFlight(256)
	_, srv := newTestServer(t, farm.Config{Workers: 1, Obs: col}, farm.ServerOptions{})
	bin := testBinary(t)

	// A clean rewrite first: stage + request events land in the ring.
	resp, _ := postRewrite(t, srv.URL, bin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean POST: status %d", resp.StatusCode)
	}

	// Inject a repair-stage fault and fail one request under a known ID.
	disarm := harden.NewPlan(harden.Fault{Point: harden.FPRepair}).Arm()
	req, err := http.NewRequest("POST", srv.URL+"/rewrite", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(farm.RequestIDHeader, "req-fault")
	failResp, err := http.DefaultClient.Do(req)
	disarm()
	if err != nil {
		t.Fatal(err)
	}
	failResp.Body.Close()
	if failResp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("injected fault: status %d, want 422", failResp.StatusCode)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	code, body := get("/debug/flight?n=64")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight: status %d", code)
	}
	var dump struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("flight payload: %v\n%s", err, body)
	}
	if dump.Total == 0 || len(dump.Events) == 0 {
		t.Fatalf("flight ring empty: %+v", dump)
	}
	var sawStage, sawStageError, sawRequest bool
	for _, e := range dump.Events {
		switch e.Kind {
		case "stage":
			sawStage = true
		case "stage_error":
			if e.Name == "repair" && e.Req == "req-fault" {
				sawStageError = true
			}
		case "request":
			sawRequest = true
		}
	}
	if !sawStage || !sawStageError || !sawRequest {
		t.Fatalf("flight dump missing kinds (stage=%v stage_error=%v request=%v):\n%s",
			sawStage, sawStageError, sawRequest, body)
	}

	// Per-request filtering returns only the failing request's capture.
	code, body = get("/debug/flight?req=req-fault")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight?req=: status %d", code)
	}
	dump.Events = nil
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) == 0 {
		t.Fatal("per-request flight capture empty")
	}
	for _, e := range dump.Events {
		if e.Req != "req-fault" {
			t.Fatalf("foreign event in per-request capture: %+v", e)
		}
	}

	if code, _ := get("/debug/flight?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad n: status %d, want 400", code)
	}
}

// TestServerFlightDisabled: without a recorder the endpoint 404s
// instead of pretending an empty ring is a healthy one.
func TestServerFlightDisabled(t *testing.T) {
	_, srv := newTestServer(t, farm.Config{Workers: 1, Obs: obs.New()}, farm.ServerOptions{})
	resp, err := http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("flightless /debug/flight: status %d, want 404", resp.StatusCode)
	}
}

// TestServerPprofGate: the profiling endpoints exist only when opted in.
func TestServerPprofGate(t *testing.T) {
	_, off := newTestServer(t, farm.Config{Workers: 1}, farm.ServerOptions{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, farm.Config{Workers: 1}, farm.ServerOptions{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof on: status %d body %.80s", resp.StatusCode, body)
	}
}

// putCache PUTs one replica envelope at the server's replication
// endpoint and returns the response (body drained and closed).
func putCache(t *testing.T, url, key string, env farm.PushArtifact) *http.Response {
	t.Helper()
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url+"/cache?key="+key, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// TestServerCachePush: a pushed replica is stored under its key and
// serves the equivalent POST /rewrite as a cache hit — the worker-side
// half of fleet successor replication.
func TestServerCachePush(t *testing.T) {
	col := obs.New()
	cache, err := farm.NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := newTestServer(t, farm.Config{Workers: 1, Cache: cache, Obs: col}, farm.ServerOptions{})
	bin := testBinary(t)

	// Rewrite once out of band to obtain a real artifact, then push it
	// into a *second* worker and prove that worker serves it from cache
	// without executing the pipeline.
	res, err := p.Rewrite(context.Background(), bin, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, cacheable := farm.Fingerprint(bin, core.Options{})
	if !cacheable {
		t.Fatal("plain rewrite not cacheable")
	}

	cache2, err := farm.NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	col2 := obs.New()
	p2, srv2 := newTestServer(t, farm.Config{Workers: 1, Cache: cache2, Obs: col2}, farm.ServerOptions{})
	env := farm.NewPushArtifact(&farm.Artifact{Binary: res.Binary, Stats: res.Stats})
	if resp := putCache(t, srv2.URL, key.String(), env); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("push: status %d, want 204", resp.StatusCode)
	}
	reg2 := p2.Obs().Metrics()
	if got := reg2.Counter("farm.replica_stores").Value(); got != 1 {
		t.Fatalf("farm.replica_stores = %d, want 1", got)
	}
	jobsBefore := reg2.Counter("farm.jobs_submitted").Value()
	resp, out := postRewrite(t, srv2.URL, bin)
	if resp.StatusCode != http.StatusOK || !out.CacheHit {
		t.Fatalf("post-push rewrite: status %d cache_hit %v, want 200 hit", resp.StatusCode, out.CacheHit)
	}
	if !bytes.Equal(out.Binary, res.Binary) {
		t.Fatal("replica-served artifact differs from the original")
	}
	if got := reg2.Counter("farm.jobs_submitted").Value(); got != jobsBefore {
		t.Fatalf("replica hit executed the pipeline: jobs %d -> %d", jobsBefore, got)
	}
}

// TestServerCachePushRejects: corrupt envelopes, bad keys, and
// cacheless workers all refuse the push without storing anything.
func TestServerCachePushRejects(t *testing.T) {
	cache, err := farm.NewCache(8, "")
	if err != nil {
		t.Fatal(err)
	}
	p, srv := newTestServer(t, farm.Config{Workers: 1, Cache: cache, Obs: obs.New()}, farm.ServerOptions{})
	key, err := farm.ParseKey(strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}

	// A bit flip in transit: checksum mismatch, 400, counted, not stored.
	env := farm.NewPushArtifact(&farm.Artifact{Binary: []byte("artifact")})
	env.Binary = []byte("artifact-corrupted")
	if resp := putCache(t, srv.URL, key.String(), env); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt push: status %d, want 400", resp.StatusCode)
	}
	if got := p.Obs().Metrics().Counter("farm.replica_rejected").Value(); got != 1 {
		t.Fatalf("farm.replica_rejected = %d, want 1", got)
	}
	if _, ok := cache.Get(key); ok {
		t.Fatal("corrupt replica was stored")
	}

	// A malformed key never reaches the cache.
	if resp := putCache(t, srv.URL, "zz", farm.NewPushArtifact(&farm.Artifact{Binary: []byte("x")})); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key: status %d, want 400", resp.StatusCode)
	}

	// A worker without a cache cannot accept replicas.
	_, srvNoCache := newTestServer(t, farm.Config{Workers: 1, Obs: obs.New()}, farm.ServerOptions{})
	if resp := putCache(t, srvNoCache.URL, key.String(), farm.NewPushArtifact(&farm.Artifact{Binary: []byte("x")})); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cacheless push: status %d, want 404", resp.StatusCode)
	}
}
