package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/emu"
	"repro/internal/farm"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// serve-mix traffic: plain requests are a Zipf draw over the distinct
// binaries; every serveValidateEvery'th request asks for validation and
// walks the binaries that can be validated in turn. The sequence is
// cycled in a fixed order. The coordinator cache holds fewer artifacts
// than either worker cache, and the workers together hold fewer than the
// draw, so steady state mixes coordinator hits, worker-tier hits and
// misses.
//
// No measured fleet traffic exists to take these from. The validated
// requests follow cmd/surihammer: every 5th request (its -validate-every
// default), over its unskewed walk of the corpus. The Zipf skew, the
// sequence length and the cache sizes are assumptions, chosen so that
// all three cache tiers serve requests; NOTES.md gives each one's reason.
var serveDraw = drawSpec{perShape: 16, configs: 2}

const (
	serveSeqLen        = 1024
	serveZipfS         = 1.1
	serveValidateEvery = 5 // cmd/surihammer's -validate-every default
	serveClients       = 2
	coordCacheEntries  = 8
	sizeStrata         = coordCacheEntries // one hot binary per stratum in the coordinator's share
	workerCacheEntries = 16
	validateProbeSteps = 300_000
)

// rig is the in-process fleet: two farm workers behind a coordinator,
// each on a loopback HTTP server, plus the benchmark's client.
type rig struct {
	url      string
	client   *http.Client
	coordCol *obs.Collector
	workCols []*obs.Collector
	stops    []func()

	mu      sync.Mutex
	handler map[string]time.Duration // worker handler time by request ID
}

// serveOn serves h on a loopback port; the returned stop closes the
// server and waits for it to finish.
func serveOn(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

func newRig() (*rig, error) {
	r := &rig{handler: map[string]time.Duration{}}
	var workers []string
	for i := 0; i < 2; i++ {
		col := obs.New()
		cache, err := farm.NewCache(workerCacheEntries, "")
		if err != nil {
			r.close()
			return nil, err
		}
		pool := farm.New(farm.Config{Cache: cache, Obs: col})
		url, stop, err := serveOn(r.timed(farm.NewHandler(pool, farm.ServerOptions{})))
		if err != nil {
			pool.Close()
			r.close()
			return nil, err
		}
		r.stops = append(r.stops, func() { stop(); pool.Close() })
		r.workCols = append(r.workCols, col)
		workers = append(workers, url)
	}
	r.coordCol = obs.New()
	coord, err := fleet.NewCoordinator(fleet.Options{Workers: workers, CacheEntries: coordCacheEntries, Obs: r.coordCol})
	if err != nil {
		r.close()
		return nil, err
	}
	url, stop, err := serveOn(coord)
	if err != nil {
		coord.Close()
		r.close()
		return nil, err
	}
	r.stops = append(r.stops, func() { stop(); coord.Close() })
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients}
	r.client = &http.Client{Transport: tr}
	r.stops = append(r.stops, tr.CloseIdleConnections)
	r.url = url
	return r, nil
}

// close stops everything newRig started, coordinator first.
func (r *rig) close() {
	for i := len(r.stops) - 1; i >= 0; i-- {
		r.stops[i]()
	}
	r.stops = nil
}

// timed wraps a worker handler and records each request's handler time
// by request ID. It runs in every run, traced or not, so the traced run
// adds no timing inside the fleet.
func (r *rig) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get(farm.RequestIDHeader)
		t := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(t)
		r.mu.Lock()
		r.handler[id] += d
		r.mu.Unlock()
	})
}

// handlerTime returns (and forgets) the worker handler time of a request.
func (r *rig) handlerTime(id string) (time.Duration, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.handler[id]
	delete(r.handler, id)
	return d, ok
}

// rewrite posts bin to the coordinator.
func (r *rig) rewrite(bin []byte, validate bool, id string) (*farm.RewriteResponse, error) {
	u := r.url + "/rewrite"
	if validate {
		u += "?validate=1"
	}
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, u, bytes.NewReader(bin))
	if err != nil {
		return nil, err
	}
	req.Header.Set(farm.RequestIDHeader, id)
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var rr farm.RewriteResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return nil, err
	}
	if validate && rr.Verdict != "validated" {
		return nil, fmt.Errorf("verdict %q: %s", rr.Verdict, rr.Reason)
	}
	return &rr, nil
}

// zipfSequence returns n requests over the cases whose counts follow the
// Zipf profile exactly (rank k gets a share proportional to
// 1/(k+1)^serveZipfS), so every seed has the same hit/miss profile. Ranks
// are dealt from size strata in turn (rank k from stratum k mod
// sizeStrata), so the hot set holds a like mix of small and large
// binaries for every seed. The seed picks the binary within each stratum
// and the request order.
func zipfSequence(rnd *rand.Rand, cases []*Case, n int) []int {
	bySize := rnd.Perm(len(cases))
	sort.SliceStable(bySize, func(i, j int) bool { return len(cases[bySize[i]].Bin) < len(cases[bySize[j]].Bin) })
	strata := make([][]int, sizeStrata)
	for k, i := range bySize {
		s := k * sizeStrata / len(bySize)
		strata[s] = append(strata[s], i)
	}
	hot := make([]int, 0, len(cases))
	for k := 0; len(hot) < len(cases); k++ {
		s := &strata[k%sizeStrata]
		if len(*s) == 0 {
			continue
		}
		j := rnd.Intn(len(*s))
		hot = append(hot, (*s)[j])
		*s = append((*s)[:j], (*s)[j+1:]...)
	}
	weights := make([]float64, len(hot))
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -serveZipfS)
		total += weights[k]
	}
	var seq []int
	for k, w := range weights {
		for c := int(math.Round(float64(n) * w / total)); c > 0; c-- {
			seq = append(seq, hot[k])
		}
	}
	// Rounding leaves the total a request or two off n; the difference is
	// taken from or given to the hottest binary, so every rank keeps its
	// requests.
	for len(seq) < n {
		seq = append(seq, hot[0])
	}
	seq = seq[len(seq)-n:]
	rnd.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// newServeMix is the serve-mix workload: two clients send the request
// sequence to the coordinator; every serveValidateEvery'th request asks
// for validation.
func newServeMix(seed int64, spec drawSpec) (*workload, error) {
	cases, err := newDraw(seed, spec)
	if err != nil {
		return nil, err
	}
	rnd := rand.New(rand.NewSource(seed ^ 0x5e7e))
	// The HTTP API validates on an empty input stream, on which some
	// generated programs run for billions of instructions, so validated
	// requests go to the binaries that exit on empty input within
	// validateProbeSteps. They walk those binaries in a seeded order,
	// each about equally often, so the validation work per cycle is an
	// average over the draw rather than the cost of a few hot binaries.
	var eligible []int
	for i, c := range cases {
		if _, err := emu.Run(c.Bin, emu.Options{MaxSteps: validateProbeSteps}); err == nil {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return nil, fmt.Errorf("serve-mix: no binary exits on empty input within %d steps", validateProbeSteps)
	}
	rnd.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	nValidate := (serveSeqLen + serveValidateEvery - 1) / serveValidateEvery
	plain := zipfSequence(rnd, cases, serveSeqLen-nValidate)
	seq := make([]int, serveSeqLen)
	validate := make([]bool, serveSeqLen)
	for n := range seq {
		if n%serveValidateEvery == 0 {
			seq[n], validate[n] = eligible[(n/serveValidateEvery)%len(eligible)], true
		} else {
			seq[n], plain = plain[0], plain[1:]
		}
	}
	r, err := newRig()
	if err != nil {
		return nil, err
	}
	w := &workload{cases: cases, seq: seq, clients: serveClients, close: r.close}
	// do sends request n and returns the response, the client latency and
	// the worker handler time (absent on a coordinator cache hit).
	do := func(n int) (*farm.RewriteResponse, time.Duration, time.Duration, bool, error) {
		i := n % len(seq)
		id := fmt.Sprintf("r%d", n)
		t := time.Now()
		resp, err := r.rewrite(cases[seq[i]].Bin, validate[i], id)
		lat := time.Since(t)
		h, forwarded := r.handlerTime(id)
		return resp, lat, h, forwarded, err
	}
	w.op = func(n int) ([]byte, error) {
		resp, _, _, _, err := do(n)
		if err != nil {
			return nil, err
		}
		return resp.Binary, nil
	}
	w.tracedOp = func(n int, rec record) ([]byte, error) {
		resp, lat, h, forwarded, err := do(n)
		if err != nil {
			return nil, err
		}
		rec["lat.traced_ms"] = ms(lat)
		if forwarded {
			rec["farm.handler_ms"] = ms(h)
			rec["fleet.overhead_ms"] = ms(lat - h)
		}
		st := resp.Stats
		rec["cfg.decoded_insts"] = float64(st.PlaneMisses)
		rec["cfg.blocks"] = float64(st.Blocks)
		rec["symbolize.table_entries"] = float64(st.TableEntries)
		rec["emit.relax_rounds"] = float64(st.RelaxRounds)
		return resp.Binary, nil
	}
	// Registry counters are read as deltas over the timed phase.
	var before map[string]int64
	snap := func() map[string]int64 {
		m := map[string]int64{}
		for _, col := range r.workCols {
			for _, k := range []string{"farm.cache_hits", "farm.cache_misses", "farm.coalesced", "farm.jobs_completed",
				"farm.verdict_validated", "farm.verdict_degraded", "farm.verdict_fallback", "emu.tier_translations"} {
				m[k] += col.Metrics().Counter(k).Value()
			}
		}
		for _, k := range []string{"fleet.requests", "fleet.cache_hits", "fleet.executions", "fleet.shed"} {
			m[k] = r.coordCol.Metrics().Counter(k).Value()
		}
		return m
	}
	w.ready = func(*checker) error { before = snap(); return nil }
	w.layers = func(lt *layerTrace) {
		after := snap()
		d := func(k string) float64 { return float64(after[k] - before[k]) }
		plain := d("farm.cache_hits") + d("farm.cache_misses") + d("farm.coalesced")
		validated := d("farm.verdict_validated") + d("farm.verdict_degraded") + d("farm.verdict_fallback")
		ops := float64(len(lt.samples["lat.traced_ms"]))
		// The handler wrapper times every request in both kinds of run,
		// so tracing adds nothing to a serve-mix request.
		lt.whole["trace.overhead_ms"] = 0
		lt.whole["farm.cache_hit_share"] = share(d("farm.cache_hits"), plain)
		lt.whole["farm.coalesced_share"] = share(d("farm.coalesced"), plain)
		lt.whole["farm.executions_per_miss"] = share(d("farm.jobs_completed")-validated, d("farm.cache_misses"))
		lt.whole["fleet.cache_hit_share"] = share(d("fleet.cache_hits"), d("fleet.requests"))
		lt.whole["fleet.forward_share"] = share(d("fleet.executions"), d("fleet.requests"))
		lt.whole["fleet.shed_share"] = share(d("fleet.shed"), ops)
		lt.whole["emu.tier_translations"] = share(d("emu.tier_translations"), ops)
	}
	return w, nil
}
