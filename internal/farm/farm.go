// Package farm is the concurrent rewrite farm: a bounded work-stealing
// worker pool that runs SURI pipeline jobs with per-job deadlines,
// panic isolation, bounded retry with backoff for transient failures,
// and queue backpressure — fronted by a content-addressed artifact
// cache (cache.go) and an HTTP batch service (server.go, cmd/surid).
//
// The pipeline is embarrassingly parallel across binaries: every stage
// of Figure 4 reads only its own input image. The farm exploits that
// with one queue per worker plus stealing, so a corpus run scales with
// GOMAXPROCS while results are still collected in submission order
// (Map), keeping evaluation-table output byte-identical to a
// sequential run.
//
// Every job carries an obs span (a detached child of the pool's
// lifetime span, safe under concurrency) and increments the farm.*
// counters, so the PR-1 tracing layer covers the farm end to end.
package farm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("farm: pool is closed")

// Task is one unit of farm work. The context carries the submitter's
// cancellation plus the pool's per-job deadline; deadlines are
// cooperative — a task that never reads ctx runs to completion, and
// the pool reports the result it returns.
type Task func(ctx context.Context) (any, error)

// Config configures a Pool. The zero value is usable: GOMAXPROCS
// workers, a 4×workers-deep queue, no deadline, no retries, no cache,
// no observability.
type Config struct {
	// Workers is the number of worker goroutines (default GOMAXPROCS).
	Workers int

	// QueueDepth bounds the number of queued-but-not-running jobs;
	// Submit blocks (backpressure) while the queue is full. Default
	// 4×Workers.
	QueueDepth int

	// JobTimeout is the per-job deadline handed to the task's context
	// (0 = none). Cooperative: CPU-bound tasks that ignore ctx are not
	// preempted.
	JobTimeout time.Duration

	// Retries is how many times a job reporting a Transient error is
	// re-run (in place, with Backoff doubling per attempt).
	Retries int

	// Backoff is the first retry delay (default 1ms); it doubles on
	// each subsequent retry and the wait honors job cancellation.
	Backoff time.Duration

	// Cache, if set, serves Pool.Rewrite from content-addressed
	// artifacts before any job is queued.
	Cache *Cache

	// Obs receives the pool-lifetime span, one child span per job, and
	// the farm.* counters. Nil disables collection at zero cost.
	Obs *obs.Collector
}

// job is one queued task plus its completion future and bookkeeping.
type job struct {
	ctx   context.Context
	label string
	task  Task
	fut   *Future
}

// Future is the pending result of a submitted job.
type Future struct {
	done chan struct{}
	val  any
	err  error
}

// Wait blocks until the job finishes or ctx is done, whichever comes
// first, and returns the job's result.
func (f *Future) Wait(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (f *Future) complete(val any, err error) {
	f.val, f.err = val, err
	close(f.done)
}

// Pool is a bounded work-stealing worker pool. Each worker owns a FIFO
// queue; Submit distributes round-robin, and an idle worker steals from
// the tail of a sibling's queue, so one slow binary cannot strand work
// behind it. All queues share one lock — contention is negligible next
// to the cost of a rewrite job.
type Pool struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]*job
	closed bool

	closedCh chan struct{}
	sem      chan struct{} // queue-depth backpressure
	rr       atomic.Uint64 // round-robin submit counter
	wg       sync.WaitGroup

	span  *obs.Span
	reg   *obs.Registry
	group Group[*RewriteResult] // coalesces concurrent identical rewrites
}

// counterNames are pre-registered so a fresh /metrics export already
// lists every farm series (and golden tests see a stable payload).
var counterNames = []string{
	"farm.jobs_submitted", "farm.jobs_completed", "farm.jobs_failed",
	"farm.jobs_canceled", "farm.retries", "farm.timeouts", "farm.panics",
	"farm.cache_hits", "farm.cache_misses", "farm.cache_disk_hits",
	"farm.cache_write_errors", "farm.coalesced",
	"farm.verdict_validated", "farm.verdict_degraded", "farm.verdict_fallback",
}

// New starts a pool. Callers must Close it to release the workers.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = time.Millisecond
	}
	p := &Pool{
		cfg:      cfg,
		queues:   make([][]*job, cfg.Workers),
		closedCh: make(chan struct{}),
		sem:      make(chan struct{}, cfg.QueueDepth),
		reg:      cfg.Obs.Metrics(),
	}
	p.cond = sync.NewCond(&p.mu)
	for _, name := range counterNames {
		p.reg.Counter(name)
	}
	p.reg.Gauge("farm.workers").Set(int64(cfg.Workers))
	p.reg.Gauge("farm.queue_depth").Set(int64(cfg.QueueDepth))
	p.span = cfg.Obs.Trace().StartRoot("farm.pool")
	p.span.SetInt("workers", int64(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
	return p
}

// Submit enqueues a task. It blocks while the queue is at QueueDepth
// (backpressure) until a slot frees, ctx is done, or the pool closes.
// The returned Future resolves when the job finishes; the job itself
// runs under ctx (plus the pool's JobTimeout), so canceling ctx skips
// the job if it has not started yet. Do not Submit from inside a Task:
// a full queue would deadlock the worker against itself.
func (p *Pool) Submit(ctx context.Context, label string, task Task) (*Future, error) {
	if task == nil {
		return nil, errors.New("farm: nil task")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.closedCh:
		return nil, ErrClosed
	}
	fut := &Future{done: make(chan struct{})}
	j := &job{ctx: ctx, label: label, task: task, fut: fut}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.sem
		return nil, ErrClosed
	}
	w := int(p.rr.Add(1)-1) % len(p.queues)
	p.queues[w] = append(p.queues[w], j)
	p.mu.Unlock()
	p.cond.Signal()
	p.counter("farm.jobs_submitted").Inc()
	return fut, nil
}

// Do submits a task and waits for its result.
func (p *Pool) Do(ctx context.Context, label string, task Task) (any, error) {
	fut, err := p.Submit(ctx, label, task)
	if err != nil {
		return nil, err
	}
	return fut.Wait(ctx)
}

// Map submits n tasks and waits for all of them, returning results
// ordered by task index — never by completion order. That ordering is
// the determinism contract the evaluation tables rely on: folding
// Map's output sequentially is bit-identical to running the tasks on
// one goroutine. errs[i] is the pool- or task-level error for task i.
func (p *Pool) Map(ctx context.Context, label string, n int, gen func(i int) Task) ([]any, []error) {
	futs := make([]*Future, n)
	vals := make([]any, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		fut, err := p.Submit(ctx, label, gen(i))
		if err != nil {
			errs[i] = err
			continue
		}
		futs[i] = fut
	}
	for i, fut := range futs {
		if fut == nil {
			continue
		}
		vals[i], errs[i] = fut.Wait(ctx)
	}
	return vals, errs
}

// Close stops accepting jobs, drains the queues (already-queued jobs
// still run, unless their own contexts are canceled), waits for every
// worker to exit, and closes the pool span. Safe to call twice.
func (p *Pool) Close() {
	p.mu.Lock()
	already := p.closed
	if !already {
		p.closed = true
		close(p.closedCh)
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	if !already {
		p.span.End()
	}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.cfg.Workers }

// Cache returns the pool's artifact cache (nil when none).
func (p *Pool) Cache() *Cache { return p.cfg.Cache }

// Obs returns the pool's collector (nil when none).
func (p *Pool) Obs() *obs.Collector { return p.cfg.Obs }

func (p *Pool) counter(name string) *obs.Counter { return p.reg.Counter(name) }

func (p *Pool) worker(i int) {
	defer p.wg.Done()
	for {
		j, ok := p.take(i)
		if !ok {
			return
		}
		<-p.sem // the job left the queue: free one backpressure slot
		p.run(i, j)
	}
}

// take pops the next job: the worker's own queue first (FIFO), then a
// steal scan over the siblings' queues, taking from the victim's tail
// — the classic work-stealing discipline, which keeps the victim's
// head (its oldest, next-to-run job) untouched. Blocks while idle;
// returns false once the pool is closed and every queue is drained.
func (p *Pool) take(i int) (*job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if q := p.queues[i]; len(q) > 0 {
			j := q[0]
			q[0] = nil
			p.queues[i] = q[1:]
			return j, true
		}
		for k := 1; k < len(p.queues); k++ {
			v := (i + k) % len(p.queues)
			if q := p.queues[v]; len(q) > 0 {
				j := q[len(q)-1]
				q[len(q)-1] = nil
				p.queues[v] = q[:len(q)-1]
				return j, true
			}
		}
		if p.closed {
			return nil, false
		}
		p.cond.Wait()
	}
}

// run executes one job with cancellation checks, bounded transient
// retry, and outcome accounting. The per-job span hangs off the pool
// span via the detached-child path, so concurrent jobs never corrupt
// the trace's open-span stack.
func (p *Pool) run(wi int, j *job) {
	span := p.span.StartChild("job:" + j.label)
	span.SetInt("worker", int64(wi))
	defer span.End()

	if err := j.ctx.Err(); err != nil {
		p.counter("farm.jobs_canceled").Inc()
		span.SetStr("outcome", "canceled")
		j.fut.complete(nil, err)
		return
	}

	var val any
	var err error
	backoff := p.cfg.Backoff
	for attempt := 0; ; attempt++ {
		val, err = p.runOnce(j)
		if err == nil || attempt >= p.cfg.Retries || !IsTransient(err) {
			break
		}
		if err = Sleep(j.ctx, backoff); err != nil {
			break
		}
		p.counter("farm.retries").Inc()
		backoff *= 2
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded) && j.ctx.Err() == nil:
			// The pool's own deadline fired, not the submitter's.
			p.counter("farm.timeouts").Inc()
			span.SetStr("outcome", "timeout")
		case errors.Is(err, context.Canceled) && j.ctx.Err() != nil:
			p.counter("farm.jobs_canceled").Inc()
			span.SetStr("outcome", "canceled")
		default:
			p.counter("farm.jobs_failed").Inc()
			span.SetStr("outcome", "failed")
		}
	} else {
		p.counter("farm.jobs_completed").Inc()
		span.SetStr("outcome", "ok")
	}
	j.fut.complete(val, err)
}

// runOnce executes the task once with the job deadline applied and any
// panic converted to a *PanicError, so one crashing binary reports an
// error instead of killing the whole farm.
func (p *Pool) runOnce(j *job) (val any, err error) {
	ctx := j.ctx
	if p.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.JobTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			p.counter("farm.panics").Inc()
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return j.task(ctx)
}

// Sleep waits d, or until ctx is done, and returns ctx's error then.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// PanicError wraps a recovered job panic.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string { return fmt.Sprintf("farm: job panicked: %v", e.Value) }

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient marks err as retryable: the pool re-runs a job whose task
// returns a transient error, up to Config.Retries times with
// exponential backoff. Deterministic pipeline failures (a binary that
// cannot be rewritten) should NOT be marked transient — retrying them
// burns a worker for the same answer.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// with Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}
