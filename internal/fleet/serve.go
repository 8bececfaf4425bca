package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/harden"
	"repro/internal/obs"
)

// forwarded is one completed fleet-level execution: the worker's
// decoded response plus serving metadata. It is the value coalesced
// waiters share and the unit the coordinator cache stores.
type forwarded struct {
	resp    farm.RewriteResponse
	worker  string             // worker name the request ran on
	status  int                // upstream HTTP status (200 on success)
	errBody farm.ErrorResponse // upstream error body, when status != 200
}

// workerError is a worker's failure passed through the coordinator:
// its error body, stage and verdict included, is written unchanged.
type workerError struct{ body farm.ErrorResponse }

func (e *workerError) Error() string { return e.body.Error }

// job is one rewrite the coordinator must serve: a binary plus its
// decoded parameters and the raw query to forward. /rewrite wraps one
// request in a job; /batch decodes one per NDJSON line.
type job struct {
	bin      []byte
	params   farm.Params
	query    url.Values
	degraded bool // admission control stripped ?validate=1
}

// FleetWorker is one worker's row in the fleet /healthz body.
type FleetWorker struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	State string `json:"state"`
}

// FleetHealth is the GET /healthz body of the coordinator.
type FleetHealth struct {
	Status        string        `json:"status"` // "ok" | "draining"
	UptimeNS      int64         `json:"uptime_ns"`
	Workers       []FleetWorker `json:"workers"`
	WorkersAlive  int           `json:"workers_alive"`
	Inflight      int           `json:"inflight"`
	MaxInflight   int           `json:"max_inflight"`
	Requests      int64         `json:"requests"`
	CacheHits     int64         `json:"cache_hits"`
	CacheDiskHits int64         `json:"cache_disk_hits"`
	CacheMisses   int64         `json:"cache_misses"`
	Coalesced     int64         `json:"coalesced"`
	Degraded      int64         `json:"degraded"`
	Shed          int64         `json:"shed"`
	Hedges        int64         `json:"hedges"`
	HedgeWins     int64         `json:"hedge_wins"`
	ReplicasPush  int64         `json:"replicas_pushed"`
	ReplicaErrors int64         `json:"replica_errors"`
	ReplicaDrops  int64         `json:"replica_dropped"`
	Draining      bool          `json:"draining"`
}

// BatchResult is one NDJSON line of a POST /batch response stream.
// Exactly one of Response / Error is set per job line; the final line
// is the summary (Summary == true) and carries only the totals.
type BatchResult struct {
	ID       string                `json:"id,omitempty"`
	Status   int                   `json:"status,omitempty"`
	Response *farm.RewriteResponse `json:"response,omitempty"`
	Error    string                `json:"error,omitempty"`

	Summary bool  `json:"summary,omitempty"`
	Jobs    int64 `json:"jobs,omitempty"`
	OK      int64 `json:"ok,omitempty"`
	Failed  int64 `json:"failed,omitempty"`
}

// BatchJob is one NDJSON line of a POST /batch request stream.
type BatchJob struct {
	ID     string `json:"id"`
	Binary []byte `json:"binary"`
	Params string `json:"params,omitempty"` // /rewrite query grammar
}

func (c *Coordinator) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /rewrite", c.handleRewrite)
	mux.HandleFunc("POST /batch", c.handleBatch)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.Handle("GET /metrics", obs.MetricsHandler(c.reg))
	mux.Handle("GET /debug/flight", obs.FlightHandler(c.col.Flight()))
	mux.HandleFunc("POST /fleet/register", c.handleRegister)
	c.mux = mux
}

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// admit applies admission control for one job and reports whether it
// was admitted; an admitted job releases its slot with c.front.Release.
// Degrade-before-shed stays here, not in farm.Front, because only the
// coordinator has a cheaper path: a validate request over DegradeAt is
// downgraded in place; only a request over MaxInflight is shed.
func (c *Coordinator) admit(j *job) bool {
	n, ok := c.front.Admit()
	if !ok {
		c.reg.Counter("fleet.shed").Inc()
		return false
	}
	if j.params.Validate && (c.opts.DegradeAt < 0 || n > int64(c.opts.DegradeAt)) {
		j.params.Validate = false
		j.degraded = true
		c.reg.Counter("fleet.degraded").Inc()
	}
	return true
}

// serve runs one admitted job end to end: coordinator cache, coalesced
// forward, verdict rewriting for degraded jobs. The returned status is
// the HTTP status the result should be written with.
func (c *Coordinator) serve(ctx context.Context, j *job, rc *obs.Collector) (int, *farm.RewriteResponse, error) {
	c.reg.Counter("fleet.requests").Inc()
	if c.opts.RequestTimeout > 0 && (j.params.Timeout <= 0 || j.params.Timeout > c.opts.RequestTimeout) {
		j.params.Timeout = c.opts.RequestTimeout
	}
	if j.params.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.params.Timeout)
		defer cancel()
	}

	key, cacheable := farm.Fingerprint(j.bin, j.params.Options)

	// Validated rewrites carry a verdict the cached plain artifact does
	// not, so they bypass the coordinator cache and coalescing — but
	// still hash-route, keeping the owning worker's cache hot.
	if j.params.Validate {
		fw, err := c.forward(ctx, j, key, cacheable, rc)
		if err != nil {
			return http.StatusServiceUnavailable, nil, err
		}
		return c.finish(j, fw)
	}

	for {
		if art, disk, ok := c.cache.Lookup(key); cacheable && ok {
			source := "coordinator-memory"
			name := "fleet.cache_hits"
			if disk {
				source = "coordinator-disk"
				name = "fleet.cache_disk_hits"
			}
			c.reg.Counter(name).Inc()
			rc.Record(obs.Event{Kind: "fleet", Name: "cache_hit", Detail: source})
			resp := &farm.RewriteResponse{
				CacheHit: true, Source: source,
				Stats: art.Stats, Binary: art.Binary,
			}
			return c.finishResp(j, resp)
		}
		if !cacheable {
			fw, err := c.forward(ctx, j, key, false, rc)
			if err != nil {
				return http.StatusServiceUnavailable, nil, err
			}
			return c.finish(j, fw)
		}
		fw, leader, err := c.group.Do(ctx, key, func() (*forwarded, error) {
			c.reg.Counter("fleet.cache_misses").Inc()
			rc.Record(obs.Event{Kind: "fleet", Name: "cache_miss"})
			fw, err := c.forward(ctx, j, key, true, rc)
			if err != nil {
				return nil, err
			}
			if fw.status == http.StatusOK {
				art := &farm.Artifact{Binary: fw.resp.Binary, Stats: fw.resp.Stats}
				if c.cache != nil {
					if perr := c.cache.Put(key, art); perr != nil {
						rc.Record(obs.Event{Kind: "fleet", Name: "cache_write_error", Detail: perr.Error()})
					}
				}
				// Successor replication rides on the leader path only: one
				// push per fleet-wide execution, after the waiters are
				// already being served.
				c.enqueueReplica(key, art, fw.worker, rc)
			}
			return fw, nil
		})
		if err != nil {
			if !leader && farm.IsCancellation(err) && ctx.Err() == nil {
				continue // the leader died of its own deadline, not ours
			}
			return http.StatusServiceUnavailable, nil, err
		}
		if !leader {
			c.reg.Counter("fleet.coalesced").Inc()
			rc.Record(obs.Event{Kind: "fleet", Name: "coalesced", Detail: fw.worker})
			cp := *fw
			cp.resp.Coalesced = true
			fw = &cp
		}
		return c.finish(j, fw)
	}
}

// finish converts a forward outcome into the response to write,
// applying the degraded-verdict rewrite.
func (c *Coordinator) finish(j *job, fw *forwarded) (int, *farm.RewriteResponse, error) {
	if fw.status != http.StatusOK {
		return fw.status, nil, &workerError{fw.errBody}
	}
	resp := fw.resp
	return c.finishResp(j, &resp)
}

// finishResp stamps degraded-admission verdicts onto an otherwise-ready
// response. A job whose ?validate=1 was stripped under load reports
// verdict "degraded": the artifact is a real rewrite, but the
// validation the client asked for never ran, and the reason says why.
func (c *Coordinator) finishResp(j *job, resp *farm.RewriteResponse) (int, *farm.RewriteResponse, error) {
	if j.degraded {
		resp.Verdict = string(core.VerdictDegraded)
		resp.Reason = "fleet: validation shed by admission control"
	}
	return http.StatusOK, resp, nil
}

// forward sends the job to its owning worker, failing over clockwise
// around the ring (or round-robin for unhashable jobs) when a worker is
// unreachable. A worker that cannot be reached is marked dead on the
// spot — its keys re-hash to the survivors without waiting for the next
// health sweep. A 5xx answer (overloaded, draining, or chaos) spills to
// the next owner without evicting the worker from the ring. With
// hedging enabled, each hop races the ring successor once the hop
// exceeds the worker's hedge threshold.
func (c *Coordinator) forward(ctx context.Context, j *job, key farm.Key, hashable bool, rc *obs.Collector) (*forwarded, error) {
	candidates := c.routable(HashKey(key), hashable)
	if len(candidates) == 0 {
		return nil, errors.New("fleet: no alive workers")
	}
	q := forwardQuery(j)
	var lastErr error
	for i, w := range candidates {
		if w.getState() != workerAlive {
			continue
		}
		if i > 0 {
			c.reg.Counter("fleet.rehash").Inc()
			rc.Record(obs.Event{Kind: "fleet", Name: "rehash", Detail: w.name})
		}
		var fw *forwarded
		var err error
		if succ := c.hedgeSuccessor(candidates, i); succ != nil {
			fw, err = c.forwardHedged(ctx, w, succ, j.bin, q, rc)
		} else {
			fw, err = c.forwardTo(ctx, w, j.bin, q, rc)
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			c.reg.Counter("fleet.forward_errors").Inc()
			c.markDead(w, err.Error())
			lastErr = err
			continue
		}
		if fw.status >= 500 {
			// Overloaded, draining, or a flaky proxy — not dead: spill to
			// the next owner without evicting it from the ring.
			c.reg.Counter("fleet.forward_errors").Inc()
			rc.Record(obs.Event{Kind: "fleet", Name: "spill", Detail: w.name})
			lastErr = fmt.Errorf("fleet: worker %s unavailable: %s", w.name, fw.errBody.Error)
			continue
		}
		return fw, nil
	}
	if lastErr == nil {
		lastErr = errors.New("fleet: no alive workers")
	}
	return nil, lastErr
}

// hedgeSuccessor picks the hedge partner for candidate i: the next
// alive candidate in failover order, when hedging is enabled. Nil means
// forward unhedged (hedging off, or nobody left to race).
func (c *Coordinator) hedgeSuccessor(candidates []*worker, i int) *worker {
	if c.opts.HedgeAfter <= 0 {
		return nil
	}
	for k := i + 1; k < len(candidates); k++ {
		if candidates[k].getState() == workerAlive {
			return candidates[k]
		}
	}
	return nil
}

// forwardTo performs one HTTP hop to one worker, propagating the
// request ID so /debug/flight?req= correlates across nodes, and feeds
// the per-worker latency histogram and the rolling hedge window. A
// canceled context (a lost hedge race) is returned as an error but not
// counted against the worker — the worker did nothing wrong — and its
// duration stays out of the latency series.
func (c *Coordinator) forwardTo(ctx context.Context, w *worker, bin []byte, q url.Values, rc *obs.Collector) (*forwarded, error) {
	// Chaos failpoint: the transport to this worker misbehaves per the
	// armed plan before anything real is sent.
	var stallBody time.Duration
	if err := harden.Inject(harden.FPFleetForward + "." + w.name); err != nil {
		var ce *harden.ChaosError
		if !errors.As(err, &ce) {
			return nil, err
		}
		switch ce.Mode {
		case harden.ChaosDrop:
			c.reg.Counter("fleet.worker_requests." + w.name).Inc()
			c.reg.Counter("fleet.worker_errors." + w.name).Inc()
			return nil, fmt.Errorf("fleet: %s: %w", w.name, err)
		case harden.Chaos5xx:
			c.reg.Counter("fleet.worker_requests." + w.name).Inc()
			return &forwarded{worker: w.name, status: http.StatusBadGateway, errBody: farm.ErrorResponse{Error: err.Error()}}, nil
		case harden.ChaosDelay:
			if serr := farm.Sleep(ctx, ce.Dur); serr != nil {
				return nil, serr
			}
		case harden.ChaosSlowBody:
			stallBody = ce.Dur
		}
	}
	u := w.url + "/rewrite"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(bin))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if rid := rc.Request(); rid != "" {
		req.Header.Set(farm.RequestIDHeader, rid)
	}
	t0 := c.clock.Now()
	resp, err := c.client.Do(req)
	c.reg.Counter("fleet.worker_requests." + w.name).Inc()
	if err != nil {
		if ctx.Err() == nil {
			c.reg.Counter("fleet.worker_errors." + w.name).Inc()
		}
		return nil, err
	}
	defer resp.Body.Close()
	if stallBody > 0 {
		// Slow-body chaos: the headers arrived, the body crawls.
		if serr := farm.Sleep(ctx, stallBody); serr != nil {
			return nil, serr
		}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, c.opts.MaxBodyBytes*2))
	dur := c.clock.Now() - t0
	if err != nil {
		if ctx.Err() == nil {
			c.reg.Counter("fleet.worker_errors." + w.name).Inc()
		}
		return nil, err
	}
	c.reg.LatencyHistogram("fleet.worker_ns." + w.name).Observe(dur)
	w.lat.Observe(dur)
	rc.Record(obs.Event{Kind: "fleet", Name: "forward", Detail: fmt.Sprintf("%s %d", w.name, resp.StatusCode), Dur: dur})
	fw := &forwarded{worker: w.name, status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &fw.resp); err != nil {
			c.reg.Counter("fleet.worker_errors." + w.name).Inc()
			return nil, fmt.Errorf("fleet: worker %s: bad response: %w", w.name, err)
		}
		c.reg.Counter("fleet.executions").Inc()
		fw.resp.Source = "worker"
		fw.resp.Worker = w.name
	} else {
		if json.Unmarshal(body, &fw.errBody) != nil || fw.errBody.Error == "" {
			fw.errBody = farm.ErrorResponse{Error: fmt.Sprintf("fleet: worker %s: status %d", w.name, resp.StatusCode)}
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			c.reg.Counter("fleet.worker_errors." + w.name).Inc()
		}
	}
	return fw, nil
}

// forwardQuery rebuilds the query to send downstream: the original
// grammar minus validate when admission degraded the job (the worker
// must run the cheap path) and minus trace (worker traces are not
// stitched into the coordinator response).
func forwardQuery(j *job) url.Values {
	q := url.Values{}
	for k, vs := range j.query {
		q[k] = vs
	}
	if j.degraded {
		q.Del("validate")
	}
	q.Del("trace")
	return q
}

func (c *Coordinator) handleRewrite(w http.ResponseWriter, r *http.Request) {
	c.front.Serve(w, r, c.serveRewrite)
}

func (c *Coordinator) serveRewrite(w http.ResponseWriter, r *http.Request, rc *obs.Collector) (int, error) {
	fail := func(status int, err error) (int, error) {
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", c.front.RetryAfter(int(c.alive.Load())))
		}
		writeError(w, status, err)
		return status, err
	}
	bin, params, status, err := farm.ReadRewrite(w, r, c.opts.MaxBodyBytes, c.opts.Budget, c.opts.RequestTimeout)
	if err != nil {
		return fail(status, err)
	}
	j := &job{bin: bin, params: params, query: r.URL.Query()}
	if !c.admit(j) {
		return fail(http.StatusServiceUnavailable, errors.New("fleet: too many in-flight rewrites"))
	}
	defer c.front.Release()
	status, resp, err := c.serve(r.Context(), j, rc)
	if err != nil {
		return fail(status, err)
	}
	farm.WriteJSON(w, status, resp)
	return status, nil
}

func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	rc := c.col.WithRequest(c.front.RequestID(w, r))
	c.reg.Counter("fleet.batches").Inc()

	// /batch reads jobs and writes results on one connection at the same
	// time. Without full duplex the server closes the unread request
	// body at the first response flush ("invalid Read on closed Body"),
	// so results could only stream after the last job line — which is
	// exactly what streaming is supposed to avoid.
	http.NewResponseController(w).EnableFullDuplex()
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		// Push the headers now: a streaming client writes its job lines
		// only after it has seen the response open, so holding the
		// headers until the first result would deadlock the stream.
		flusher.Flush()
	}
	out := &lineWriter{enc: json.NewEncoder(w), flush: flusher}

	sem := make(chan struct{}, max(c.opts.MaxInflight/2, 1))
	var jobs, ok, failed int64
	var wg sync.WaitGroup
	sc := newLineScanner(r.Body, int(c.opts.MaxBodyBytes))
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var bj BatchJob
		if err := json.Unmarshal(line, &bj); err != nil {
			failed++
			jobs++
			out.write(BatchResult{ID: bj.ID, Status: http.StatusBadRequest, Error: "fleet: bad batch line: " + err.Error()})
			continue
		}
		q, err := url.ParseQuery(bj.Params)
		if err != nil {
			failed++
			jobs++
			out.write(BatchResult{ID: bj.ID, Status: http.StatusBadRequest, Error: "fleet: bad params: " + err.Error()})
			continue
		}
		params, err := farm.ParseQuery(q, c.opts.Budget, c.opts.RequestTimeout)
		if err != nil {
			failed++
			jobs++
			out.write(BatchResult{ID: bj.ID, Status: http.StatusBadRequest, Error: err.Error()})
			continue
		}
		jobs++
		c.reg.Counter("fleet.batch_jobs").Inc()
		j := &job{bin: bj.Binary, params: params, query: q}
		id := bj.ID
		// Batch jobs queue on the semaphore instead of shedding: the
		// client already committed the whole stream, so backpressure —
		// not 503s — is the right control inside one batch.
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			var res BatchResult
			if !c.admit(j) {
				res = BatchResult{ID: id, Status: http.StatusServiceUnavailable, Error: "fleet: shed"}
			} else {
				status, resp, err := c.serve(r.Context(), j, rc.MetricsOnly())
				c.front.Release()
				if err != nil {
					res = BatchResult{ID: id, Status: status, Error: err.Error()}
				} else {
					res = BatchResult{ID: id, Status: status, Response: resp}
				}
			}
			if res.Error != "" {
				out.addFailed()
			} else {
				out.addOK()
			}
			out.write(res)
		}()
	}
	wg.Wait()
	okN, failedN := out.totals()
	ok = okN
	failed = failedN + failed
	summary := BatchResult{Summary: true, Jobs: jobs, OK: ok, Failed: failed}
	if err := sc.Err(); err != nil {
		// A truncated or over-long job stream must not masquerade as a
		// clean batch: the summary says the input died, and how.
		summary.Error = "fleet: batch input: " + err.Error()
	}
	out.write(summary)
	rc.Record(obs.Event{Kind: "request", Name: "/batch", Detail: fmt.Sprintf("jobs=%d ok=%d failed=%d", jobs, ok, failed)})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	rows := make([]FleetWorker, 0, len(c.workers))
	alive := 0
	for _, wk := range c.workers {
		st := wk.getState()
		if st == workerAlive {
			alive++
		}
		rows = append(rows, FleetWorker{Name: wk.name, URL: wk.url, State: st.String()})
	}
	c.mu.Unlock()
	health, status := c.front.Health()
	farm.WriteJSON(w, status, FleetHealth{
		Status:        health,
		UptimeNS:      c.front.Uptime(),
		Workers:       rows,
		WorkersAlive:  alive,
		Inflight:      c.front.Inflight(),
		MaxInflight:   c.opts.MaxInflight,
		Requests:      c.reg.Counter("fleet.requests").Value(),
		CacheHits:     c.reg.Counter("fleet.cache_hits").Value(),
		CacheDiskHits: c.reg.Counter("fleet.cache_disk_hits").Value(),
		CacheMisses:   c.reg.Counter("fleet.cache_misses").Value(),
		Coalesced:     c.reg.Counter("fleet.coalesced").Value(),
		Degraded:      c.reg.Counter("fleet.degraded").Value(),
		Shed:          c.reg.Counter("fleet.shed").Value(),
		Hedges:        c.reg.Counter("fleet.hedges").Value(),
		HedgeWins:     c.reg.Counter("fleet.hedge_wins").Value(),
		ReplicasPush:  c.reg.Counter("fleet.replicas_pushed").Value(),
		ReplicaErrors: c.reg.Counter("fleet.replica_errors").Value(),
		ReplicaDrops:  c.reg.Counter("fleet.replica_dropped").Value(),
		Draining:      c.front.Draining(),
	})
}

// handleRegister admits a worker into the fleet: surid posts its own
// advertised URL on startup (-register) and the next health sweep — or
// the next forward — keeps it honest.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: bad register body: %w", err))
		return
	}
	u, err := url.Parse(body.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("fleet: bad worker url %q", body.URL))
		return
	}
	wk, added := c.addWorker(body.URL)
	if added {
		c.reg.Counter("fleet.registered").Inc()
	}
	c.col.Record(obs.Event{Kind: "fleet", Name: "register", Detail: wk.name + " " + body.URL})
	farm.WriteJSON(w, http.StatusOK, struct {
		Name string `json:"name"`
	}{wk.name})
}

// Register announces a worker to a coordinator (the surid -register
// client side). Safe to call before the coordinator is up when retries
// are allowed: attempts are spaced by exponential backoff starting at
// base (<= 0 means 250ms), doubling up to 32× base, with ±25% jitter so
// a rack of workers restarting together does not re-register in
// lockstep. Every failed attempt's cause is reported through logf
// (log.Printf-shaped; nil disables logging).
func Register(coordinatorURL, workerURL string, attempts int, base time.Duration, logf func(format string, args ...any)) error {
	if attempts < 1 {
		attempts = 1
	}
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	maxWait := 32 * base
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	body, _ := json.Marshal(struct {
		URL string `json:"url"`
	}{workerURL})
	var lastErr error
	backoff := base
	for i := 0; i < attempts; i++ {
		if i > 0 {
			jitter := time.Duration(rng.Int63n(int64(backoff)/2+1)) - backoff/4
			wait := backoff + jitter
			if logf != nil {
				logf("fleet: register %s with %s: attempt %d/%d failed (%v), next in %s",
					workerURL, coordinatorURL, i, attempts, lastErr, wait)
			}
			time.Sleep(wait)
			if backoff < maxWait {
				backoff *= 2
				if backoff > maxWait {
					backoff = maxWait
				}
			}
		}
		resp, err := http.Post(coordinatorURL+"/fleet/register", "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if i > 0 && logf != nil {
				logf("fleet: register %s with %s: ok after %d attempts", workerURL, coordinatorURL, i+1)
			}
			return nil
		}
		lastErr = fmt.Errorf("fleet: register: status %d", resp.StatusCode)
	}
	if logf != nil {
		logf("fleet: register %s with %s: giving up after %d attempts: %v",
			workerURL, coordinatorURL, attempts, lastErr)
	}
	return lastErr
}

// writeError writes a coordinator failure. A worker's failure is passed
// through unchanged, verdict included. The coordinator's own failures
// carry no fallback verdict: it runs no pipeline that could conclude one.
func writeError(w http.ResponseWriter, status int, err error) {
	var we *workerError
	if errors.As(err, &we) {
		farm.WriteJSON(w, status, we.body)
		return
	}
	farm.WriteJSON(w, status, farm.ErrorResponse{Error: err.Error(), Stage: core.Stage(err)})
}
