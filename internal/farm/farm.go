// Package farm is the concurrent rewrite farm: a bounded FIFO worker
// pool that runs SURI pipeline jobs with panic isolation and queue
// backpressure — fronted by a content-addressed artifact cache
// (cache.go) and an HTTP batch service (server.go, cmd/surid).
//
// The pipeline is embarrassingly parallel across binaries: every stage
// of Figure 4 reads only its own input image. The farm exploits that
// with one shared queue drained by every worker, so a corpus run scales
// with GOMAXPROCS while results are still collected in submission order
// (Map), keeping evaluation-table output byte-identical to a
// sequential run.
//
// Every job carries an obs span (a detached child of the pool's
// lifetime span, safe under concurrency) and increments the farm.*
// counters, so the tracing layer covers the farm end to end.
package farm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("farm: pool is closed")

// Task is one unit of farm work. The context is the submitter's, so
// its cancellation and deadline reach the task; they are cooperative —
// a task that never reads ctx runs to completion, and the pool reports
// the result it returns.
type Task func(ctx context.Context) (any, error)

// Config configures a Pool. The zero value is usable: GOMAXPROCS
// workers, a 4×workers-deep queue, no cache, no observability.
type Config struct {
	// Workers is the number of worker goroutines (default GOMAXPROCS).
	Workers int

	// QueueDepth bounds the number of queued-but-not-running jobs;
	// Submit blocks (backpressure) while the queue is full. Default
	// 4×Workers.
	QueueDepth int

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

// Pool is a bounded FIFO worker pool: one queue of QueueDepth jobs,
// drained in submission order by Workers goroutines, so no job
// overtakes an older one and a slow job holds up only its own worker.
type Pool struct {
	cfg Config

	// queue is closed by Close under mu's write lock, after closedCh;
	// Submit sends only under the read lock and after seeing closedCh
	// open, so it never sends on a closed queue.
	queue     chan job
	mu        sync.RWMutex
	closedCh  chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	span  *obs.Span
	reg   *obs.Registry
	group Group[*RewriteResult] // coalesces concurrent identical rewrites
}

// counterNames are pre-registered so a fresh /metrics export already
// lists every farm series (and golden tests see a stable payload).
var counterNames = []string{
	"farm.jobs_submitted", "farm.jobs_completed", "farm.jobs_failed",
	"farm.jobs_canceled", "farm.panics",
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
	p := &Pool{
		cfg:      cfg,
		queue:    make(chan job, cfg.QueueDepth),
		closedCh: make(chan struct{}),
		reg:      cfg.Obs.Metrics(),
	}
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
// runs under ctx, so canceling ctx (or its deadline passing) skips the
// job if it has not started yet. Do not Submit from inside a Task: a
// full queue would deadlock the worker against itself.
func (p *Pool) Submit(ctx context.Context, label string, task Task) (*Future, error) {
	if task == nil {
		return nil, errors.New("farm: nil task")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	select {
	case <-p.closedCh:
		return nil, ErrClosed
	default:
	}
	fut := &Future{done: make(chan struct{})}
	select {
	case p.queue <- job{ctx: ctx, label: label, task: task, fut: fut}:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.closedCh:
		return nil, ErrClosed
	}
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
// A nil pool runs the tasks inline, in index order, and once ctx is
// done gives each remaining task ctx's error instead of running it.
func (p *Pool) Map(ctx context.Context, label string, n int, gen func(i int) Task) ([]any, []error) {
	vals := make([]any, n)
	errs := make([]error, n)
	if p == nil {
		for i := 0; i < n; i++ {
			if errs[i] = ctx.Err(); errs[i] == nil {
				vals[i], errs[i] = gen(i)(ctx)
			}
		}
		return vals, errs
	}
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		futs[i], errs[i] = p.Submit(ctx, label, gen(i))
	}
	for i, fut := range futs {
		if fut != nil {
			vals[i], errs[i] = fut.Wait(ctx)
		}
	}
	return vals, errs
}

// Close stops accepting jobs, drains the queue (already-queued jobs
// still run, unless their own contexts are done), waits for every
// worker to exit, and closes the pool span. Safe to call twice.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.closedCh) // wakes Submits blocked on a full queue
		p.mu.Lock()
		close(p.queue)
		p.mu.Unlock()
		p.wg.Wait()
		p.span.End()
	})
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
	for j := range p.queue {
		p.run(i, j)
	}
}

// run executes one job with a cancellation check and outcome
// accounting. The per-job span hangs off the pool span via the
// detached-child path, so concurrent jobs never corrupt the trace's
// open-span stack.
func (p *Pool) run(wi int, j job) {
	span := p.span.StartChild("job:" + j.label)
	span.SetInt("worker", int64(wi))
	defer span.End()

	if err := j.ctx.Err(); err != nil {
		p.counter("farm.jobs_canceled").Inc()
		span.SetStr("outcome", "canceled")
		j.fut.complete(nil, err)
		return
	}
	val, err := p.runTask(j)
	switch {
	case err == nil:
		p.counter("farm.jobs_completed").Inc()
		span.SetStr("outcome", "ok")
	case errors.Is(err, context.Canceled) && j.ctx.Err() != nil:
		p.counter("farm.jobs_canceled").Inc()
		span.SetStr("outcome", "canceled")
	default:
		p.counter("farm.jobs_failed").Inc()
		span.SetStr("outcome", "failed")
	}
	j.fut.complete(val, err)
}

// runTask executes the task with any panic converted to a *PanicError,
// so one crashing binary reports an error instead of killing the whole
// farm.
func (p *Pool) runTask(j job) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.counter("farm.panics").Inc()
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return j.task(j.ctx)
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
