package fleet_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/fleet"
	"repro/internal/harden"
	"repro/internal/obs"
	"repro/internal/prog"
)

// farmWorker is a real surid worker: a full rewrite pool behind the
// real HTTP handler, so fleet e2e tests exercise the actual pipeline.
type farmWorker struct {
	srv  *httptest.Server
	col  *obs.Collector
	pool *farm.Pool
}

func newFarmWorker(t *testing.T) *farmWorker {
	t.Helper()
	col := obs.New().EnableFlight(256)
	cache, err := farm.NewCache(16, "")
	if err != nil {
		t.Fatal(err)
	}
	p := farm.New(farm.Config{Workers: 2, Cache: cache, Obs: col})
	srv := httptest.NewServer(farm.NewHandler(p, farm.ServerOptions{}))
	t.Cleanup(func() {
		srv.Close()
		p.Close()
	})
	return &farmWorker{srv: srv, col: col, pool: p}
}

func e2eBinary(t *testing.T) []byte {
	t.Helper()
	p := prog.Suites(0.03)[0].Programs[0]
	bin, err := cc.Compile(p.Module, cc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestE2ECoalescingProof is the tentpole acceptance test: N identical
// concurrent rewrites through the coordinator execute the pipeline
// exactly once across the whole fleet — proven by the workers' own
// farm.jobs_submitted counters — and every caller gets the same
// byte-exact artifact.
func TestE2ECoalescingProof(t *testing.T) {
	w0, w1 := newFarmWorker(t), newFarmWorker(t)
	c := newCoordinator(t, fleet.Options{Workers: []string{w0.srv.URL, w1.srv.URL}})
	srv := serveCoordinator(t, c)
	bin := e2eBinary(t)

	const n = 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bins [][]byte
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, out := postFleet(t, srv.URL, "/rewrite", bin)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			mu.Lock()
			bins = append(bins, out.Binary)
			mu.Unlock()
		}()
	}
	wg.Wait()

	executed := w0.col.Metrics().Counter("farm.jobs_submitted").Value() +
		w1.col.Metrics().Counter("farm.jobs_submitted").Value()
	if executed != 1 {
		t.Fatalf("pipeline executions across the fleet = %d, want exactly 1", executed)
	}
	reg := c.Obs().Metrics()
	if got := reg.Counter("fleet.executions").Value(); got != 1 {
		t.Fatalf("fleet.executions = %d, want 1", got)
	}
	co := reg.Counter("fleet.coalesced").Value()
	hits := reg.Counter("fleet.cache_hits").Value()
	if co+hits != n-1 {
		t.Fatalf("coalesced %d + hits %d, want %d non-leaders", co, hits, n-1)
	}
	if len(bins) != n {
		t.Fatalf("results = %d, want %d", len(bins), n)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bins[0], bins[i]) {
			t.Fatalf("artifact %d differs from artifact 0", i)
		}
	}
	if len(bins[0]) == 0 {
		t.Fatal("empty artifact")
	}
}

// TestE2EKillWorkerMidBatch is the fault-tolerance acceptance test:
// with a batch in flight, one worker dies; its jobs re-hash to the
// survivor, every job completes, and the stream still terminates with
// a clean summary.
func TestE2EKillWorkerMidBatch(t *testing.T) {
	w0, w1 := newFarmWorker(t), newFarmWorker(t)
	c := newCoordinator(t, fleet.Options{Workers: []string{w0.srv.URL, w1.srv.URL}})
	srv := serveCoordinator(t, c)
	bin := e2eBinary(t)

	// Craft jobs whose keys deterministically land on each worker: the
	// budget is part of the content address, so distinct budget-insts
	// values (all >= the 16Mi default, so none starves the pipeline)
	// give distinct keys with identical behaviour.
	ring := fleet.BuildRing([]string{"w0", "w1"}, 0)
	ownerOf := func(insts int64) string {
		k, ok := farm.Fingerprint(bin, core.Options{Budget: harden.Budget{TotalInsts: insts}})
		if !ok {
			t.Fatal("uncacheable")
		}
		return ring.Owner(fleet.HashKey(k))
	}
	var w0Insts, w1Insts []int64
	for i := int64(0); len(w0Insts) < 2 || len(w1Insts) < 2; i++ {
		insts := int64(harden.DefaultTotalInsts) + i
		if ownerOf(insts) == "w0" {
			w0Insts = append(w0Insts, insts)
		} else {
			w1Insts = append(w1Insts, insts)
		}
	}

	var body bytes.Buffer
	writeJob := func(id string, insts int64) {
		line, _ := json.Marshal(fleet.BatchJob{
			ID: id, Binary: bin, Params: fmt.Sprintf("budget-insts=%d", insts),
		})
		body.Write(append(line, '\n'))
	}
	writeJob("live-a", w1Insts[0])
	writeJob("orphan-a", w0Insts[0])
	writeJob("orphan-b", w0Insts[1])
	writeJob("live-b", w1Insts[1])

	// Park w0's pool so any rewrite forwarded to it stays in flight:
	// the kill below is then guaranteed to catch w0 mid-request, never
	// after a suspiciously fast pipeline already finished.
	park := make(chan struct{})
	defer close(park)
	for i := 0; i < 2; i++ {
		if _, err := w0.pool.Submit(context.Background(), "park", func(ctx context.Context) (any, error) {
			select {
			case <-park:
			case <-ctx.Done():
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	type batchOut struct {
		results map[string]fleet.BatchResult
		summary *fleet.BatchResult
		err     error
	}
	done := make(chan batchOut, 1)
	go func() {
		var out batchOut
		out.results = map[string]fleet.BatchResult{}
		resp, err := http.Post(srv.URL+"/batch", "application/x-ndjson", bytes.NewReader(body.Bytes()))
		if err != nil {
			out.err = err
			done <- out
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 64<<20)
		for sc.Scan() {
			var r fleet.BatchResult
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				out.err = fmt.Errorf("bad result line %q: %w", sc.Bytes(), err)
				done <- out
				return
			}
			if r.Summary {
				s := r
				out.summary = &s
			} else {
				out.results[r.ID] = r
			}
		}
		out.err = sc.Err()
		done <- out
	}()

	// Kill w0 the moment its first forwarded rewrite is in flight: the
	// batch is running, one of its jobs is mid-request on the dying
	// worker (parked behind the blocked pool), and the coordinator must
	// fail everything over.
	waitFor(t, func() bool {
		return w0.col.Metrics().Gauge("farm.http_inflight").Value() >= 1
	})
	w0.srv.CloseClientConnections()
	w0.srv.Close()

	out := <-done
	if out.err != nil {
		t.Fatalf("batch stream did not terminate cleanly: %v", out.err)
	}
	if out.summary == nil {
		t.Fatal("no summary line")
	}
	got := out.results
	if out.summary.Jobs != 4 || out.summary.OK != 4 || out.summary.Failed != 0 {
		t.Fatalf("summary %+v, want jobs 4 ok 4 failed 0 despite worker death", *out.summary)
	}
	for _, id := range []string{"live-a", "live-b", "orphan-a", "orphan-b"} {
		r := got[id]
		if r.Status != http.StatusOK || r.Response == nil {
			t.Fatalf("job %s lost to worker death: %+v", id, r)
		}
		if r.Response.Worker != "" && r.Response.Worker != "w1" {
			t.Fatalf("job %s served by %q, want the survivor w1", id, r.Response.Worker)
		}
	}
	reg := c.Obs().Metrics()
	if reg.Counter("fleet.rehash").Value() < 1 {
		t.Fatal("no rehash counted: the orphaned keys never failed over")
	}
	if reg.Gauge("fleet.workers_alive").Value() != 1 {
		t.Fatal("dead worker still counted alive")
	}
}

// TestE2EKillWorkerPrimary is the replication acceptance test: with
// successor replication on and the coordinator cache off, killing the
// worker that owns (and executed) a key must turn the failover request
// into a replica cache *hit* on the survivor — zero additional pipeline
// executions, proven by the workers' own farm.jobs_submitted counters.
func TestE2EKillWorkerPrimary(t *testing.T) {
	w0, w1 := newFarmWorker(t), newFarmWorker(t)
	c := newCoordinator(t, fleet.Options{
		Workers:      []string{w0.srv.URL, w1.srv.URL},
		CacheEntries: -1, // front-end cache off: a hit can only come from a worker
		Replicate:    1,
	})
	srv := serveCoordinator(t, c)
	bin := e2eBinary(t)

	// Resolve which worker owns the key, the same way the coordinator
	// routes it.
	k, ok := farm.Fingerprint(bin, core.Options{})
	if !ok {
		t.Fatal("uncacheable")
	}
	byName := map[string]*farmWorker{"w0": w0, "w1": w1}
	primaryName := fleet.BuildRing([]string{"w0", "w1"}, 0).Owner(fleet.HashKey(k))
	secondaryName := "w0"
	if primaryName == "w0" {
		secondaryName = "w1"
	}
	primary, secondary := byName[primaryName], byName[secondaryName]

	// Warm: one real execution on the primary.
	resp, out := postFleet(t, srv.URL, "/rewrite", bin)
	if resp.StatusCode != http.StatusOK || out.Worker != primaryName || out.CacheHit {
		t.Fatalf("warm rewrite: status %d worker %q hit %v, want fresh execution on %s",
			resp.StatusCode, out.Worker, out.CacheHit, primaryName)
	}
	// Replication is async: wait until the artifact has actually landed
	// in the successor's cache before pulling the plug.
	waitFor(t, func() bool {
		return c.Obs().Metrics().Counter("fleet.replicas_pushed").Value() >= 1 &&
			secondary.pool.Cache().Stats().Entries >= 1
	})
	submitted := func() int64 {
		return w0.col.Metrics().Counter("farm.jobs_submitted").Value() +
			w1.col.Metrics().Counter("farm.jobs_submitted").Value()
	}
	if got := submitted(); got != 1 {
		t.Fatalf("executions after warm = %d, want 1", got)
	}

	primary.srv.CloseClientConnections()
	primary.srv.Close()

	resp2, out2 := postFleet(t, srv.URL, "/rewrite", bin)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("failover status %d, want 200", resp2.StatusCode)
	}
	if out2.Worker != secondaryName || !out2.CacheHit {
		t.Fatalf("failover: worker %q hit %v, want a cache hit on %s", out2.Worker, out2.CacheHit, secondaryName)
	}
	if !bytes.Equal(out2.Binary, out.Binary) {
		t.Fatal("replica artifact differs from the original")
	}
	if got := submitted(); got != 1 {
		t.Fatalf("executions after failover = %d, want still 1 (the replica absorbed the kill)", got)
	}
}

// TestE2EFlightCorrelation: one request ID, supplied by the client,
// indexes flight events on the coordinator AND on the worker that
// served the forwarded request (satellite: cross-node correlation).
func TestE2EFlightCorrelation(t *testing.T) {
	w := newFarmWorker(t)
	c := newCoordinator(t, fleet.Options{Workers: []string{w.srv.URL}})
	srv := serveCoordinator(t, c)

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/rewrite", bytes.NewReader(e2eBinary(t)))
	req.Header.Set(farm.RequestIDHeader, "xnode-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	for _, node := range []struct{ name, url string }{
		{"coordinator", srv.URL}, {"worker", w.srv.URL},
	} {
		fr, err := http.Get(node.url + "/debug/flight?req=xnode-1")
		if err != nil {
			t.Fatal(err)
		}
		var dump struct {
			Events []obs.Event `json:"events"`
		}
		if err := json.NewDecoder(fr.Body).Decode(&dump); err != nil {
			t.Fatal(err)
		}
		fr.Body.Close()
		if len(dump.Events) == 0 {
			t.Fatalf("%s has no flight events for the shared request ID", node.name)
		}
		for _, e := range dump.Events {
			if e.Req != "xnode-1" {
				t.Fatalf("%s event tagged %q, want xnode-1", node.name, e.Req)
			}
		}
	}
}

// TestE2EWorkerErrorPassThrough: a worker's error body reaches the
// client through the coordinator unchanged, stage and verdict included
// — the same body the worker answers directly.
func TestE2EWorkerErrorPassThrough(t *testing.T) {
	w := newFarmWorker(t)
	c := newCoordinator(t, fleet.Options{Workers: []string{w.srv.URL}})
	srv := serveCoordinator(t, c)

	post := func(base, path string, bin []byte) (int, farm.ErrorResponse) {
		t.Helper()
		resp, err := http.Post(base+path, "application/octet-stream", bytes.NewReader(bin))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e farm.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, e
	}
	for _, tc := range []struct {
		name, path, stage, verdict string
		bin                        []byte
	}{
		{name: "junk-binary", path: "/rewrite", stage: "elf", bin: []byte("not an ELF")},
		{name: "budget", path: "/rewrite?budget-insts=1", stage: "cfg", verdict: "fallback", bin: e2eBinary(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct, want := post(w.srv.URL, tc.path, tc.bin)
			status, got := post(srv.URL, tc.path, tc.bin)
			if status != http.StatusUnprocessableEntity || direct != status {
				t.Fatalf("status %d through the fleet, %d direct; want 422 both", status, direct)
			}
			if got.Stage != tc.stage || got.Verdict != tc.verdict {
				t.Fatalf("fleet body %+v, want stage %q verdict %q", got, tc.stage, tc.verdict)
			}
			if got != want {
				t.Fatalf("fleet body %+v differs from the worker's %+v", got, want)
			}
		})
	}
}
