package fleet

import (
	"context"
	"net/url"
	"time"

	"repro/internal/obs"
)

// Hedged requests: a slow-but-alive worker must not drag p999 for its
// whole key range. When the primary's in-flight time exceeds an
// adaptive per-worker threshold, the coordinator fires the same request
// at the ring successor and takes whichever succeeds first, canceling
// the loser via context — the cancellation propagates through the
// worker's request context into the pipeline's Cancel budget, so a
// losing execution stops instead of finishing for nobody. Hedges run
// inside the singleflight leader (the group key is the content
// address), so a hedge can never double pipeline work for coalesced
// waiters; and since a replicated successor holds the artifact, the
// common hedge win is a cache hit, not a second execution.

// hedgeQuantile and hedgeMultiplier set the hedge threshold: twice the
// worker's rolling p90 latency, its typical tail.
const hedgeQuantile, hedgeMultiplier = 0.9, 2

// hedgeThreshold computes when to hedge a request to w: the worker's
// rolling hedgeQuantile latency times hedgeMultiplier, floored at
// HedgeAfter. Until the rolling window has samples, the cumulative
// fleet.worker_ns histogram seeds the estimate, so a restarted
// coordinator does not hedge blind.
func (c *Coordinator) hedgeThreshold(w *worker) time.Duration {
	est := w.lat.Quantile(hedgeQuantile)
	if est == 0 {
		est = c.reg.LatencyHistogram("fleet.worker_ns." + w.name).Quantile(hedgeQuantile)
	}
	d := time.Duration(est * hedgeMultiplier)
	if d < c.opts.HedgeAfter {
		d = c.opts.HedgeAfter
	}
	return d
}

// hedgeResult is one arm's outcome inside forwardHedged.
type hedgeResult struct {
	fw    *forwarded
	err   error
	w     *worker
	hedge bool
}

// definitive reports whether an arm's outcome settles the request: a
// transport error or a 5xx is retryable (the forward loop fails over),
// anything else — success or a client-fault 4xx — is the answer.
func definitive(r hedgeResult) bool {
	return r.err == nil && r.fw.status < 500
}

// forwardHedged races the primary against one ring successor: the
// primary starts immediately, the successor only after the primary has
// been in flight longer than its hedge threshold. First definitive
// answer wins and the loser's context is canceled. When both arms fail
// retryably, the primary's outcome is returned so the caller's failover
// loop proceeds exactly as it would have unhedged.
func (c *Coordinator) forwardHedged(ctx context.Context, primary, succ *worker, bin []byte, q url.Values, rc *obs.Collector) (*forwarded, error) {
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()

	results := make(chan hedgeResult, 2)
	launch := func(actx context.Context, w *worker, hedge bool) {
		fw, err := c.forwardTo(actx, w, bin, q, rc)
		results <- hedgeResult{fw: fw, err: err, w: w, hedge: hedge}
	}
	go launch(pctx, primary, false)

	timer := time.NewTimer(c.hedgeThreshold(primary))
	defer timer.Stop()

	hedged := false
	var primaryLoss *hedgeResult
	pending := 1
	for pending > 0 {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				pending++
				c.reg.Counter("fleet.hedges").Inc()
				rc.Record(obs.Event{Kind: "fleet", Name: "hedge", Detail: primary.name + "->" + succ.name})
				go launch(hctx, succ, true)
			}
		case r := <-results:
			pending--
			if definitive(r) {
				if r.hedge {
					c.reg.Counter("fleet.hedge_wins").Inc()
					rc.Record(obs.Event{Kind: "fleet", Name: "hedge_win", Detail: succ.name})
					pcancel()
				} else if hedged {
					hcancel()
				}
				return r.fw, nil
			}
			if !r.hedge {
				if !hedged {
					// The primary failed outright before the hedge armed:
					// nothing is racing, hand the failure straight back to
					// the failover loop.
					return r.fw, r.err
				}
				primaryLoss = &r
			}
		}
	}
	// Both arms failed retryably. Report the primary's failure (the
	// failover loop will mark it dead on a transport error and walk on
	// to the successor itself).
	if primaryLoss != nil {
		return primaryLoss.fw, primaryLoss.err
	}
	return nil, ctx.Err()
}
