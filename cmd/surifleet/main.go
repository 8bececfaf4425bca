// Command surifleet is the fleet coordinator: it fronts N surid
// workers with one service endpoint, consistent-hashing every rewrite's
// content address across the worker set so each worker's artifact cache
// stays hot for its own key range.
//
//	POST /rewrite        one rewrite, same query grammar as surid; the
//	                     response carries fleet serving metadata
//	                     (source, worker, coalesced) on top of the
//	                     worker's answer
//	POST /batch          NDJSON {"id","binary","params"} jobs in,
//	                     NDJSON results out as each finishes, one
//	                     summary line last
//	GET  /healthz        fleet membership + cache/admission counters
//	                     (503 once draining)
//	GET  /metrics        Prometheus exposition of the fleet.* series
//	                     (?format=text for the human dump)
//	GET  /debug/flight   the coordinator's flight recorder (?n=, ?req=)
//	POST /fleet/register worker self-registration {"url":"..."}
//
// The coordinator layers a two-tier artifact cache (in-memory LRU over
// an optional shared -cache-dir) in front of the fleet, coalesces
// concurrent identical rewrites into a single forwarded execution, and
// applies degrade-before-shed admission control: past -degrade-at
// in-flight requests a ?validate=1 request is served as a plain rewrite
// (verdict "degraded" in the response); past -max-inflight it is shed
// with 503 and a backlog-proportional Retry-After.
//
// Membership is health-check driven: workers join via -workers or
// /fleet/register (surid -register), a -health-interval sweep probes
// each worker's /healthz, and a dead or draining worker leaves the hash
// ring — its keys re-hash to the survivors, and in-flight requests fail
// over with bounded retry. A dead worker whose /healthz recovers
// rejoins on the next sweep.
//
// Resilience: -replicate N pushes each executed artifact to the next N
// ring successors (PUT /cache on the worker), so killing a key's owner
// costs a failover cache hit, not a recompute; -hedge-after D races a
// forward against the ring successor once it has been in flight longer
// than max(D, 2 × the worker's rolling p90 latency), first success
// wins, the loser is canceled. -chaos arms
// seeded transport faults (drop, delay, 5xx, slow-body, probe flap) for
// soak-testing exactly those paths.
//
// Usage:
//
//	surifleet [-addr :8650] [-workers URL,URL,...]
//	          [-cache-dir DIR] [-cache-entries N] [-max-inflight N]
//	          [-degrade-at N] [-max-body BYTES] [-timeout D]
//	          [-health-interval D] [-replicate N] [-replica-queue N]
//	          [-hedge-after D] [-chaos SPEC]
//	          [-budget N] [-budget-steps N] [-flight N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/farm"
	"repro/internal/fleet"
	"repro/internal/harden"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8650", "listen address")
	workers := flag.String("workers", "", "comma-separated worker base URLs (more can register at runtime)")
	cacheDir := flag.String("cache-dir", "", "shared disk tier for rewrite artifacts (empty = memory only)")
	cacheEntries := flag.Int("cache-entries", 256, "coordinator in-memory artifact cache size (LRU)")
	maxInflight := flag.Int("max-inflight", 0, "in-flight requests before shedding with 503 (0 = 256)")
	degradeAt := flag.Int("degrade-at", 0, "in-flight requests before ?validate=1 degrades to a plain rewrite (0 = max-inflight/2)")
	maxBody := flag.Int64("max-body", 0, "max request body / batch line bytes (0 = 64 MiB)")
	reqTimeout := flag.Duration("timeout", 0, "per-request deadline (0 = none)")
	healthInterval := flag.Duration("health-interval", 2*time.Second, "worker health poll period (0 = disabled)")
	replicate := flag.Int("replicate", 0, "push each executed artifact to this many ring successors (0 = off)")
	replicaQueue := flag.Int("replica-queue", 0, "async replication backlog before drop-and-count (0 = 64)")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge threshold floor: race the ring successor once a forward exceeds it (0 = hedging off)")
	chaos := flag.String("chaos", "", "transport fault plan: seed:<n>[:maxVictims[:minDur]] or mode:worker[:dur[:after[:times]]] ';'-chained (modes: "+strings.Join(harden.ChaosModes, ", ")+")")
	budgetInsts := flag.Int64("budget", 0, "default decoded-instruction budget, must match the workers (0 = pipeline default)")
	budgetSteps := flag.Uint64("budget-steps", 0, "default emulator-step budget, must match the workers (0 = pipeline default)")
	flightEvents := flag.Int("flight", 4096, "flight recorder capacity in events (0 = disabled)")
	flag.Parse()

	col := obs.New()
	if *flightEvents > 0 {
		col.EnableFlight(*flightEvents)
	}
	var workerURLs []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			workerURLs = append(workerURLs, u)
		}
	}
	coord, err := fleet.NewCoordinator(fleet.Options{
		Workers:        workerURLs,
		CacheEntries:   *cacheEntries,
		CacheDir:       *cacheDir,
		MaxInflight:    *maxInflight,
		DegradeAt:      *degradeAt,
		MaxBodyBytes:   *maxBody,
		Budget:         harden.Budget{TotalInsts: *budgetInsts, EmuSteps: *budgetSteps},
		RequestTimeout: *reqTimeout,
		HealthInterval: *healthInterval,
		Replicate:      *replicate,
		ReplicaQueue:   *replicaQueue,
		HedgeAfter:     *hedgeAfter,
		Obs:            col,
		ErrorLog:       log.Default(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "surifleet:", err)
		os.Exit(1)
	}
	if *chaos != "" {
		// Chaos plans are keyed by ring name (w0, w1, ...), which the
		// coordinator assigns to -workers in order.
		names := make([]string, len(workerURLs))
		for i := range workerURLs {
			names[i] = fmt.Sprintf("w%d", i)
		}
		plan, err := fleet.ParseChaos(*chaos, names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "surifleet:", err)
			os.Exit(1)
		}
		disarm := plan.Arm()
		defer disarm()
		log.Printf("surifleet: CHAOS ARMED %q -> %v", *chaos, plan.Points())
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surifleet:", err)
		os.Exit(1)
	}

	log.Printf("surifleet: listening on %s (%d workers, cache %d entries, dir %q, health every %s)",
		*addr, len(workerURLs), *cacheEntries, *cacheDir, *healthInterval)
	if err := farm.ServeAndDrain(context.Background(), "surifleet", ln, coord, coord.SetDraining, coord.Close); err != nil {
		fmt.Fprintln(os.Stderr, "surifleet:", err)
		os.Exit(1)
	}
	log.Print("surifleet: bye")
}
