// Command surid serves the SURI pipeline as an HTTP batch service: a
// concurrent rewrite farm with a content-addressed artifact cache
// behind an observable endpoint set:
//
//	POST /rewrite       binary in -> {"cache_hit":…,"stats":{…},"binary":"<base64>"}
//	                    query: ignore-ehframe=1, allow-noncet=1, validate=1,
//	                           trace=1 (attach the request's span tree),
//	                           timeout=<duration>, budget-insts=<n>, budget-steps=<n>,
//	                           instrument=<pass,pass,...> (standard instrumentation
//	                           passes, e.g. coverage,shadowstack; unknown names
//	                           answer 422 with the instrument stage; instrumented
//	                           artifacts are cached under their own content key)
//	GET  /healthz       structured liveness/readiness JSON (503 while draining)
//	GET  /metrics       Prometheus text exposition (?format=text for the
//	                    human-readable obs dump)
//	GET  /debug/flight  the flight recorder's retained events (?n=, ?req=)
//	GET  /debug/pprof/  stdlib profiling endpoints, only with -pprof
//
// Every request gets an ID (client-supplied X-Suri-Request-Id or
// server-minted), echoed on the response and tagging the request's
// flight-recorder events; failed requests dump their captured events to
// the server log.
//
// Usage:
//
//	surid [-addr :8649] [-j N] [-cache-dir DIR] [-cache-entries N] [-max-inflight N]
//	      [-max-body BYTES] [-timeout D] [-budget N] [-budget-steps N]
//	      [-flight N] [-pprof] [-register URL] [-advertise URL]
//
// -register joins a surifleet coordinator as a worker: the server posts
// its own URL (-advertise, default derived from -addr) to the
// coordinator's /fleet/register and keeps retrying in the background,
// so worker and coordinator can start in either order.
//
// -j sets the farm's worker count (default GOMAXPROCS); -cache-dir
// enables write-through disk persistence of rewrite artifacts, so a
// restarted server still answers repeat requests from cache;
// -max-inflight caps concurrent /rewrite requests (excess get 503 with
// Retry-After); -max-body bounds the request body (413 past it);
// -timeout bounds each request's wall clock, from admission through
// its wait in the farm queue to the end of the pipeline, which takes
// it as a cancellation budget; it is the one deadline (per-request
// ?timeout= can only tighten it); -budget / -budget-steps set the default decoded-
// instruction and emulator-step budgets (0 = pipeline defaults);
// -flight sizes the always-on flight recorder ring (0 disables it);
// -pprof mounts /debug/pprof/. Budget or timeout exhaustion answers 422
// with the failing stage and the "fallback" verdict. SIGINT/SIGTERM
// trigger a graceful shutdown: /healthz flips to draining so load
// balancers stop routing here, in-flight requests finish, then the
// farm drains and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/farm"
	"repro/internal/fleet"
	"repro/internal/harden"
	"repro/internal/obs"
)

// advertiseURL derives the worker URL a coordinator should dial from
// the listen address: a bare ":port" advertises localhost.
func advertiseURL(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

func main() {
	addr := flag.String("addr", ":8649", "listen address")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "farm worker goroutines")
	cacheDir := flag.String("cache-dir", "", "persist rewrite artifacts under this directory (empty = memory only)")
	cacheEntries := flag.Int("cache-entries", 256, "in-memory artifact cache size (LRU)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent /rewrite requests before 503 (0 = 4x workers)")
	maxBody := flag.Int64("max-body", 0, "max request body bytes before 413 (0 = 64 MiB)")
	reqTimeout := flag.Duration("timeout", 0, "per-request deadline, wired into the pipeline budget (0 = none)")
	budgetInsts := flag.Int64("budget", 0, "default decoded-instruction budget per rewrite (0 = pipeline default)")
	budgetSteps := flag.Uint64("budget-steps", 0, "default emulator-step budget per validation run (0 = pipeline default)")
	flightEvents := flag.Int("flight", 4096, "flight recorder capacity in events (0 = disabled)")
	enablePprof := flag.Bool("pprof", false, "serve stdlib profiling under /debug/pprof/")
	register := flag.String("register", "", "coordinator base URL to join as a fleet worker (e.g. http://host:8650)")
	advertise := flag.String("advertise", "", "URL the coordinator should reach this worker at (default derived from -addr)")
	flag.Parse()

	col := obs.New()
	if *flightEvents > 0 {
		col.EnableFlight(*flightEvents)
	}
	cache, err := farm.NewCache(*cacheEntries, *cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surid:", err)
		os.Exit(1)
	}
	pool := farm.New(farm.Config{
		Workers: *jobs,
		Cache:   cache,
		Obs:     col,
	})
	server := farm.NewServer(pool, farm.ServerOptions{
		MaxInflight:    *maxInflight,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *reqTimeout,
		Budget:         harden.Budget{TotalInsts: *budgetInsts, EmuSteps: *budgetSteps},
		EnablePprof:    *enablePprof,
		ErrorLog:       log.Default(),
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "surid:", err)
		os.Exit(1)
	}

	if *register != "" {
		// Self-registration: announce this worker to the fleet
		// coordinator once it is reachable. Retried in the background
		// with capped exponential backoff + jitter (each attempt's cause
		// logged) so worker and coordinator can start in either order;
		// the coordinator's health sweep takes over from there.
		workerURL := *advertise
		if workerURL == "" {
			workerURL = advertiseURL(*addr)
		}
		go func() {
			if err := fleet.Register(*register, workerURL, 12, 250*time.Millisecond, log.Printf); err != nil {
				log.Printf("surid: fleet registration with %s failed: %v", *register, err)
				return
			}
			log.Printf("surid: registered with fleet %s as %s", *register, workerURL)
		}()
	}

	log.Printf("surid: listening on %s (%d workers, cache %d entries, dir %q, flight %d)",
		*addr, pool.Workers(), *cacheEntries, *cacheDir, *flightEvents)
	// Closing the pool drains the farm: no goroutines leak past this call.
	if err := farm.ServeAndDrain(context.Background(), "surid", ln, server, server.SetDraining, pool.Close); err != nil {
		fmt.Fprintln(os.Stderr, "surid:", err)
		os.Exit(1)
	}
	log.Print("surid: bye")
}
