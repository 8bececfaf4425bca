package farm

import (
	"context"

	"repro/internal/core"
	"repro/internal/obs"
)

// RewriteResult is a farm-served rewrite: the rewritten ELF image, its
// pipeline statistics, and how it was served — from the artifact cache,
// or coalesced onto a concurrent identical execution.
type RewriteResult struct {
	Binary    []byte     `json:"binary"`
	Stats     core.Stats `json:"stats"`
	CacheHit  bool       `json:"cache_hit"`
	Coalesced bool       `json:"coalesced,omitempty"`
}

// Rewrite runs the SURI pipeline over bin through the farm. Cacheable
// requests (no Instrument hook) are served from the content-addressed
// cache when possible — no job is queued on a hit — and stored back on
// success. By default the job runs core.Rewrite with a metrics-only
// view of the pool's collector, so pipeline statistics aggregate across
// workers without corrupting the trace's open-span stack (the farm's
// own per-job span covers timing); a caller that already set opts.Obs —
// the HTTP layer passes a request-scoped view for `?trace=1` — keeps
// its collector, and cache probes are journaled through it.
func (p *Pool) Rewrite(ctx context.Context, bin []byte, opts core.Options) (*RewriteResult, error) {
	if opts.Obs == nil {
		opts.Obs = p.cfg.Obs.MetricsOnly()
	}
	key, cacheable := Fingerprint(bin, opts)
	cache := p.cfg.Cache
	if !cacheable || cache == nil {
		return p.rewriteJob(ctx, bin, opts, key, false)
	}
	for {
		if art, disk, ok := cache.get(key); ok {
			p.counter("farm.cache_hits").Inc()
			detail := "hit"
			if disk {
				p.counter("farm.cache_disk_hits").Inc()
				detail = "disk_hit"
			}
			opts.Obs.Record(obs.Event{Kind: "cache", Detail: detail})
			return &RewriteResult{Binary: art.Binary, Stats: art.Stats, CacheHit: true}, nil
		}
		// Coalesce concurrent identical misses onto one execution: the
		// leader counts the miss and runs the pipeline; waiters share
		// its artifact without queueing a job. A waiter whose leader was
		// canceled loops back — the cache probe then catches the case
		// where a different leader already finished.
		res, leader, err := p.group.Do(ctx, key, func() (*RewriteResult, error) {
			p.counter("farm.cache_misses").Inc()
			opts.Obs.Record(obs.Event{Kind: "cache", Detail: "miss"})
			return p.rewriteJob(ctx, bin, opts, key, true)
		})
		if !leader && err != nil && IsCancellation(err) && ctx.Err() == nil {
			continue
		}
		if err != nil {
			return nil, err
		}
		if !leader {
			p.counter("farm.coalesced").Inc()
			opts.Obs.Record(obs.Event{Kind: "cache", Detail: "coalesced"})
			shared := *res
			shared.Coalesced = true
			return &shared, nil
		}
		return res, nil
	}
}

// rewriteJob queues one pipeline execution on the pool and stores the
// artifact back into the cache when store is set.
func (p *Pool) rewriteJob(ctx context.Context, bin []byte, opts core.Options, key Key, store bool) (*RewriteResult, error) {
	v, err := p.Do(ctx, "rewrite", func(jobCtx context.Context) (any, error) {
		// Wire the job's context (request timeout, pool shutdown) into
		// the pipeline so a dead client stops burning a worker.
		o := opts
		o.Cancel = jobCtx.Done()
		res, rerr := core.Rewrite(bin, o)
		if rerr != nil {
			return nil, rerr
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	res := v.(*core.Result)
	out := &RewriteResult{Binary: res.Binary, Stats: res.Stats}
	if store {
		if perr := p.cfg.Cache.Put(key, &Artifact{Binary: res.Binary, Stats: res.Stats}); perr != nil {
			// Persistence failure must not fail the rewrite; surface it
			// on the metrics endpoint instead.
			p.counter("farm.cache_write_errors").Inc()
		}
	}
	return out, nil
}

// ValidatedResult is a farm-served guarded rewrite: the binary (original
// on fallback), the verdict, and the attempt accounting.
type ValidatedResult struct {
	Binary   []byte       `json:"binary"`
	Verdict  core.Verdict `json:"verdict"`
	Attempts int          `json:"attempts"`
	Reason   string       `json:"reason,omitempty"`
	Stats    core.Stats   `json:"stats"`
}

// RewriteValidated runs core.RewriteValidated through the farm. Guarded
// rewrites are never cached: the verdict depends on differential
// execution against the request's inputs, which are not part of the
// artifact address.
func (p *Pool) RewriteValidated(ctx context.Context, bin []byte, opts core.ValidateOptions) (*ValidatedResult, error) {
	if opts.Obs == nil {
		opts.Obs = p.cfg.Obs.MetricsOnly()
	}
	v, err := p.Do(ctx, "rewrite_validated", func(jobCtx context.Context) (any, error) {
		o := opts
		o.Cancel = jobCtx.Done()
		return core.RewriteValidated(bin, o)
	})
	if err != nil {
		return nil, err
	}
	res := v.(*core.ValidatedResult)
	out := &ValidatedResult{
		Binary:   res.Binary,
		Verdict:  res.Verdict,
		Attempts: res.Attempts,
		Reason:   res.Reason,
	}
	if res.Result != nil {
		out.Stats = res.Result.Stats
	}
	p.counter("farm.verdict_" + string(res.Verdict)).Inc()
	return out, nil
}
