// Package fleet turns N surid workers into one service. The
// coordinator (cmd/surifleet) consistent-hashes every rewrite's content
// address across the worker set, so each worker's artifact cache stays
// hot for its own key range; layers a coordinator-local two-tier cache
// (memory LRU over a shared disk tier, reusing farm.Cache) in front of
// the fleet; coalesces concurrent identical rewrites into one forwarded
// execution (farm.Group — all waiters share the artifact); streams
// batch submissions (POST /batch, NDJSON in and out, results as they
// finish); and applies admission control that degrades ?validate=1
// requests to plain rewrites before it sheds anything — validation
// doubles the cost of a request (the differential run executes both
// binaries), so under pressure the service gives up soundness
// *reporting* before it gives up availability, and says so in the
// response verdict.
//
// Worker membership is health-check driven: a background loop polls
// each worker's structured /healthz, a draining or dead worker leaves
// the ring, and its keys re-hash to the survivors — in-flight forwards
// to a dying worker fail over with bounded retry, so a worker crash
// mid-batch loses no jobs. Dead workers keep getting probed, so a node
// that comes back is re-admitted automatically. Workers join statically
// (-workers) or by registering themselves (POST /fleet/register,
// surid -register with capped exponential backoff + jitter).
//
// Resilience is layered on the same ring order. With Replicate > 0 the
// coordinator asynchronously pushes each executed artifact to the key's
// next R ring successors (worker PUT /cache, checksummed envelope)
// through a bounded drop-and-count queue, so losing a key's owner fails
// over to a successor as a cache hit instead of a re-execution. With
// HedgeAfter > 0 a forward that has been in flight longer than
// max(floor, 2 x the worker's rolling p90 latency) races
// the ring successor — first success wins, the loser is canceled via
// context — and hedges launch inside the coalescing group, so they can
// never duplicate pipeline work. The worker transport carries per-worker
// harden failpoints (drop, delay, 5xx, slow-body, probe flap; see
// ParseChaos) for deterministic chaos testing.
//
// Endpoints:
//
//	POST /rewrite        same grammar as surid, plus fleet serving
//	                     metadata (source, worker, coalesced) in the
//	                     response
//	POST /batch          NDJSON jobs in, NDJSON results out as they
//	                     finish, one summary line at the end
//	GET  /healthz        fleet-level health: per-worker states, cache
//	                     and admission counters (503 once draining)
//	GET  /metrics        Prometheus exposition: fleet.* counters and
//	                     per-worker latency histograms (?format=text)
//	GET  /debug/flight   the coordinator's flight recorder (?n=, ?req=)
//	POST /fleet/register worker self-registration {"url": "..."}
//
// The request ID (X-Suri-Request-Id) is minted or honored at the
// coordinator and propagated to workers on every forwarded request, so
// /debug/flight?req= on any node of the fleet correlates one request's
// events end to end. Request IDs, in-flight admission, Retry-After, the
// drain switch and the /metrics and /debug/flight handlers are the code
// surid runs (farm.Front, obs.MetricsHandler, obs.FlightHandler); only
// degrade-before-shed is the coordinator's own. A worker's error body is
// passed through unchanged.
package fleet

import (
	"fmt"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/farm"
	"repro/internal/harden"
	"repro/internal/obs"
)

// Options configure a Coordinator. The zero value is usable for tests:
// no workers (register some), memory-only cache, defaults everywhere.
type Options struct {
	// Workers are the initial worker base URLs (http://host:port).
	// More can join at runtime via POST /fleet/register.
	Workers []string

	// CacheEntries bounds the coordinator's in-memory artifact LRU
	// (0 means 256). Negative disables the coordinator cache entirely —
	// every request forwards — which is how replication tests prove a
	// failover was served by a worker replica and not by the front-end.
	CacheEntries int

	// CacheDir, when set, is the shared disk tier under the memory LRU.
	// Pointing several fleet nodes (or the workers themselves) at one
	// directory shares cold artifacts across the whole fleet; the
	// checksummed envelope makes a corrupt file a miss, never an error.
	CacheDir string

	// MaxInflight is the shed threshold: a request arriving while more
	// than MaxInflight are already being served is rejected with 503
	// and a depth-proportional Retry-After (<= 0 means 256). A batch
	// runs at most MaxInflight/2 of its jobs at once; the rest queue
	// rather than shed.
	MaxInflight int

	// DegradeAt is the degrade threshold: a ?validate=1 request
	// arriving while more than DegradeAt are in flight is served as a
	// plain rewrite instead, with the downgrade reported in the
	// response verdict. 0 means MaxInflight/2; negative means degrade
	// always (every validate request — the deterministic test setting).
	DegradeAt int

	// MaxBodyBytes bounds request bodies and batch lines (<= 0: 64 MiB).
	MaxBodyBytes int64

	// Budget is the default pipeline budget used for fingerprinting at
	// the coordinator; configure it identically on coordinator and
	// workers so both sides address the same artifact.
	Budget harden.Budget

	// RequestTimeout bounds each forwarded request (<= 0 means none).
	RequestTimeout time.Duration

	// HealthInterval is the membership poll period (0 disables the
	// background loop; tests drive CheckHealth directly).
	HealthInterval time.Duration

	// Replicate is the successor replication factor: after a forwarded
	// rewrite executes, the coordinator asynchronously pushes the
	// artifact (PUT /cache) to the next Replicate ring successors of the
	// worker that produced it, so that worker's death costs a failover —
	// not a recompute. 0 disables replication.
	Replicate int

	// ReplicaQueue bounds the asynchronous replication backlog. The
	// serving path never blocks on replication: a push arriving at a
	// full queue is dropped and counted (fleet.replica_dropped) — the
	// artifact is merely un-replicated until its next execution.
	// <= 0 means 64.
	ReplicaQueue int

	// HedgeAfter enables hedged requests and sets the threshold floor:
	// when a forwarded request has been in flight longer than
	// max(HedgeAfter, hedgeMultiplier × the worker's rolling
	// hedgeQuantile latency), the same request is fired at the next ring
	// successor and the first success wins; the loser is canceled.
	// 0 disables hedging.
	HedgeAfter time.Duration

	// Obs receives the fleet.* counters, per-worker histograms, and the
	// coordinator's flight events. Nil disables collection.
	Obs *obs.Collector

	// ErrorLog, when set, receives forward failures and membership
	// transitions.
	ErrorLog *log.Logger
}

// workerState is the membership state of one worker.
type workerState int32

const (
	workerAlive workerState = iota
	workerDead
	workerDraining
)

func (s workerState) String() string {
	switch s {
	case workerAlive:
		return "alive"
	case workerDead:
		return "dead"
	case workerDraining:
		return "draining"
	}
	return "unknown"
}

// worker is one fleet member. The name (w0, w1, ...) is assigned at
// registration and is what the hash ring keys on, so assignment is
// deterministic for a given membership sequence regardless of ports.
// lat is the rolling latency window the hedge threshold tracks.
type worker struct {
	name  string
	url   string
	state atomic.Int32
	lat   *obs.Rolling
}

func (w *worker) getState() workerState  { return workerState(w.state.Load()) }
func (w *worker) setState(s workerState) { w.state.Store(int32(s)) }

// counterNames are pre-registered so a fresh /metrics export already
// carries every fleet series.
var counterNames = []string{
	"fleet.requests", "fleet.batches", "fleet.batch_jobs",
	"fleet.shed", "fleet.degraded", "fleet.coalesced",
	"fleet.cache_hits", "fleet.cache_disk_hits", "fleet.cache_misses",
	"fleet.executions", "fleet.forward_errors", "fleet.rehash",
	"fleet.registered",
	"fleet.hedges", "fleet.hedge_wins",
	"fleet.replicas_pushed", "fleet.replica_errors", "fleet.replica_dropped",
}

// Coordinator is the fleet front-end. Build one with NewCoordinator,
// serve it (it implements http.Handler), and Close it to stop the
// health loop.
type Coordinator struct {
	opts   Options
	col    *obs.Collector
	reg    *obs.Registry
	clock  obs.Clock
	cache  *farm.Cache
	group  farm.Group[*forwarded]
	client *http.Client
	mux    *http.ServeMux
	front  *farm.Front

	rrSeq atomic.Uint64 // round-robin for unhashable requests
	alive atomic.Int64  // workers on the ring

	mu      sync.Mutex
	workers []*worker
	byURL   map[string]*worker
	ring    *Ring

	replCh   chan replJob
	replDone chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	loopDone chan struct{}
}

// NewCoordinator builds a coordinator over the initial worker set and
// starts the health loop (when HealthInterval > 0). The initial workers
// are assumed alive until the first health check says otherwise.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 256
	}
	if opts.DegradeAt == 0 {
		opts.DegradeAt = opts.MaxInflight / 2
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	if opts.ReplicaQueue <= 0 {
		opts.ReplicaQueue = 64
	}
	var cache *farm.Cache
	if opts.CacheEntries >= 0 {
		var err error
		cache, err = farm.NewCache(opts.CacheEntries, opts.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("fleet: cache: %w", err)
		}
	}
	clock := opts.Obs.Clock()
	if clock == nil {
		clock = obs.NewClock()
	}
	c := &Coordinator{
		opts:   opts,
		col:    opts.Obs,
		reg:    opts.Obs.Metrics(),
		clock:  clock,
		cache:  cache,
		client: &http.Client{},
		byURL:  make(map[string]*worker),
		stop:   make(chan struct{}),
	}
	for _, name := range counterNames {
		c.reg.Counter(name)
	}
	c.reg.Gauge("fleet.workers").Set(0)
	c.reg.Gauge("fleet.workers_alive").Set(0)
	c.front = farm.NewFront("f", opts.MaxInflight, opts.Obs, "fleet.inflight", "fleet.request_ns", "fleet.http_errors")
	c.reg.Gauge("fleet.draining").Set(0)
	for _, url := range opts.Workers {
		c.addWorker(url)
	}
	c.buildMux()
	if opts.Replicate > 0 {
		c.replCh = make(chan replJob, opts.ReplicaQueue)
		c.replDone = make(chan struct{})
		go c.replicateLoop()
	}
	if opts.HealthInterval > 0 {
		c.loopDone = make(chan struct{})
		go c.healthLoop()
	}
	return c, nil
}

// Close stops the health and replication loops. In-flight requests
// finish on their own; queued replica pushes are abandoned (they are
// advisory — the artifact is merely un-replicated).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	if c.loopDone != nil {
		<-c.loopDone
	}
	if c.replDone != nil {
		<-c.replDone
	}
}

// SetDraining flips the drain flag /healthz reports (503 once set), the
// same rolling-restart contract surid has.
func (c *Coordinator) SetDraining(v bool) {
	c.front.SetDraining(v)
	var g int64
	if v {
		g = 1
	}
	c.reg.Gauge("fleet.draining").Set(g)
}

// Obs returns the coordinator's collector.
func (c *Coordinator) Obs() *obs.Collector { return c.col }

// addWorker registers url (idempotent), assigning the next stable name.
// Returns the worker and whether it was newly added.
func (c *Coordinator) addWorker(url string) (*worker, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.byURL[url]; ok {
		// A re-registration is a worker announcing it is back: believe
		// it until the next health check.
		if w.getState() != workerAlive {
			w.setState(workerAlive)
			c.rebuildRingLocked()
		}
		return w, false
	}
	w := &worker{name: fmt.Sprintf("w%d", len(c.workers)), url: url, lat: obs.NewRolling(0)}
	c.workers = append(c.workers, w)
	c.byURL[url] = w
	// Pre-register the per-worker series so /metrics exposes the full
	// fleet shape from the first scrape.
	c.reg.Counter("fleet.worker_requests." + w.name)
	c.reg.Counter("fleet.worker_errors." + w.name)
	c.reg.LatencyHistogram("fleet.worker_ns." + w.name)
	c.rebuildRingLocked()
	return w, true
}

// rebuildRingLocked rebuilds the ring over the routable (alive) workers
// and refreshes the membership gauges. Caller holds c.mu.
func (c *Coordinator) rebuildRingLocked() {
	var names []string
	for _, w := range c.workers {
		if w.getState() == workerAlive {
			names = append(names, w.name)
		}
	}
	c.ring = BuildRing(names, 0) // 64 virtual points per worker
	c.alive.Store(int64(len(names)))
	c.reg.Gauge("fleet.workers").Set(int64(len(c.workers)))
	c.reg.Gauge("fleet.workers_alive").Set(int64(len(names)))
}

// routable returns the candidate workers for a request: the ring
// owners of key when hashable, otherwise every alive worker starting at
// a round-robin offset. The result is ordered by failover preference.
func (c *Coordinator) routable(h uint64, hashable bool) []*worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hashable {
		names := c.ring.Owners(h, 0) // every routable worker, in failover order
		out := make([]*worker, 0, len(names))
		for _, name := range names {
			for _, w := range c.workers {
				if w.name == name {
					out = append(out, w)
					break
				}
			}
		}
		return out
	}
	var alive []*worker
	for _, w := range c.workers {
		if w.getState() == workerAlive {
			alive = append(alive, w)
		}
	}
	if len(alive) == 0 {
		return nil
	}
	off := int(c.rrSeq.Add(1)-1) % len(alive)
	out := make([]*worker, 0, len(alive))
	for i := 0; i < len(alive); i++ {
		out = append(out, alive[(off+i)%len(alive)])
	}
	return out
}

// workerByName resolves a ring name back to its member.
func (c *Coordinator) workerByName(name string) *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.name == name {
			return w
		}
	}
	return nil
}

// markDead transitions a worker out of the ring after a failed forward
// or health check; its keys re-hash to the survivors immediately.
func (c *Coordinator) markDead(w *worker, cause string) {
	if w.getState() == workerDead {
		return
	}
	w.setState(workerDead)
	c.mu.Lock()
	c.rebuildRingLocked()
	c.mu.Unlock()
	c.reg.Counter("fleet.worker_errors." + w.name).Inc()
	c.col.Record(obs.Event{Kind: "fleet", Name: "worker_down", Detail: w.name + ": " + cause})
	if c.opts.ErrorLog != nil {
		c.opts.ErrorLog.Printf("fleet: worker %s (%s) down: %s", w.name, w.url, cause)
	}
}

// healthLoop polls membership until Close.
func (c *Coordinator) healthLoop() {
	defer close(c.loopDone)
	t := time.NewTicker(c.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.CheckHealth()
		}
	}
}

// CheckHealth probes every worker's /healthz once and applies the
// resulting state transitions (alive, draining, dead). Exported so
// tests and surifleet can force a membership refresh deterministically.
func (c *Coordinator) CheckHealth() {
	c.mu.Lock()
	workers := append([]*worker(nil), c.workers...)
	c.mu.Unlock()
	changed := false
	for _, w := range workers {
		next := c.probe(w)
		if prev := w.getState(); prev != next {
			w.setState(next)
			changed = true
			c.col.Record(obs.Event{Kind: "fleet", Name: "worker_" + next.String(), Detail: w.name})
			if c.opts.ErrorLog != nil {
				c.opts.ErrorLog.Printf("fleet: worker %s (%s) %s -> %s", w.name, w.url, prev, next)
			}
		}
	}
	if changed {
		c.mu.Lock()
		c.rebuildRingLocked()
		c.mu.Unlock()
	}
}

// probe classifies one worker from its /healthz: 200 is alive, a
// well-formed draining answer is draining (stop routing, keep
// watching), anything else — connection refused, timeout, garbage — is
// dead.
func (c *Coordinator) probe(w *worker) workerState {
	// Chaos failpoint: a flapping member answers this probe as dead even
	// though the worker itself is healthy — the next clean probe brings
	// it back, which is exactly the resurrection path under test.
	if err := harden.Inject(harden.FPFleetProbe + "." + w.name); err != nil {
		return workerDead
	}
	timeout := time.Second
	if c.opts.HealthInterval > 0 && c.opts.HealthInterval < timeout {
		timeout = c.opts.HealthInterval
	}
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(w.url + "/healthz")
	if err != nil {
		return workerDead
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return workerAlive
	case http.StatusServiceUnavailable:
		return workerDraining
	}
	return workerDead
}
