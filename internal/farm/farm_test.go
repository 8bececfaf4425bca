package farm_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/obs"
)

// TestMapOrdersByIndex: results come back in submission order no matter
// which worker finishes first — the determinism contract the evaluation
// tables rely on.
func TestMapOrdersByIndex(t *testing.T) {
	p := farm.New(farm.Config{Workers: 8})
	defer p.Close()
	const n = 100
	vals, errs := p.Map(context.Background(), "square", n, func(i int) farm.Task {
		return func(context.Context) (any, error) { return i * i, nil }
	})
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("task %d: %v", i, errs[i])
		}
		if vals[i].(int) != i*i {
			t.Fatalf("vals[%d] = %v, want %d", i, vals[i], i*i)
		}
	}
}

// TestMapNilPool: a nil pool runs Map's tasks inline in index order,
// and once ctx is done the remaining tasks get ctx's error without
// running.
func TestMapNilPool(t *testing.T) {
	var p *farm.Pool
	var order []int
	vals, errs := p.Map(context.Background(), "inline", 5, func(i int) farm.Task {
		return func(context.Context) (any, error) {
			order = append(order, i)
			return i * i, nil
		}
	})
	for i := 0; i < 5; i++ {
		if errs[i] != nil || vals[i].(int) != i*i || order[i] != i {
			t.Fatalf("task %d: val %v err %v, run order %v", i, vals[i], errs[i], order)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran []int
	vals, errs = p.Map(ctx, "inline", 5, func(i int) farm.Task {
		return func(context.Context) (any, error) {
			ran = append(ran, i)
			if i == 1 {
				cancel()
			}
			return i, nil
		}
	})
	if len(ran) != 2 || ran[0] != 0 || ran[1] != 1 {
		t.Fatalf("ran %v, want [0 1]", ran)
	}
	for i := 0; i < 5; i++ {
		if i < 2 {
			if errs[i] != nil || vals[i].(int) != i {
				t.Fatalf("task %d: val %v err %v", i, vals[i], errs[i])
			}
		} else if !errors.Is(errs[i], context.Canceled) || vals[i] != nil {
			t.Fatalf("task %d after cancel: val %v err %v, want Canceled", i, vals[i], errs[i])
		}
	}
}

// TestWorkStealing: one worker stuck on a slow job must not strand the
// jobs queued behind it — the other workers drain the shared queue.
func TestWorkStealing(t *testing.T) {
	p := farm.New(farm.Config{Workers: 4, QueueDepth: 64})
	defer p.Close()
	release := make(chan struct{})
	var ran atomic.Int32
	futs := make([]*farm.Future, 0, 16)
	// The first job blocks its worker; the rest wait in the one FIFO
	// queue, and the three free workers must run all of them.
	fut, err := p.Submit(context.Background(), "slow", func(context.Context) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	futs = append(futs, fut)
	for i := 0; i < 15; i++ {
		fut, err := p.Submit(context.Background(), "fast", func(context.Context) (any, error) {
			ran.Add(1)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	deadline := time.After(5 * time.Second)
	for ran.Load() != 15 {
		select {
		case <-deadline:
			t.Fatalf("only %d/15 fast jobs ran while one worker was blocked", ran.Load())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	for _, f := range futs {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentSubmitCancelShutdown races many submitters, a canceler,
// and Close against each other (run under -race): every Submit must
// either fail cleanly or yield a Future that resolves.
func TestConcurrentSubmitCancelShutdown(t *testing.T) {
	p := farm.New(farm.Config{Workers: 4, QueueDepth: 8})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				fut, err := p.Submit(ctx, "spin", func(ctx context.Context) (any, error) {
					select {
					case <-time.After(100 * time.Microsecond):
					case <-ctx.Done():
					}
					return 1, nil
				})
				if err != nil {
					if !errors.Is(err, farm.ErrClosed) && !errors.Is(err, context.Canceled) {
						t.Errorf("submit: %v", err)
					}
					return
				}
				fut.Wait(context.Background())
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	cancel()
	p.Close()
	wg.Wait()
	if _, err := p.Submit(context.Background(), "late", func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, farm.ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
	p.Close() // second Close is a no-op
}

// TestBackpressure: with the queue full, Submit blocks until the
// submitter's context expires.
func TestBackpressure(t *testing.T) {
	p := farm.New(farm.Config{Workers: 1, QueueDepth: 1})
	defer p.Close()
	release := make(chan struct{})
	defer close(release)
	block := func(context.Context) (any, error) { <-release; return nil, nil }
	if _, err := p.Submit(context.Background(), "b0", block); err != nil { // occupies the worker
		t.Fatal(err)
	}
	// Fill the single queue slot. The worker may or may not have
	// dequeued b0 yet, so allow one extra.
	deadline := time.Now().Add(2 * time.Second)
	full := false
	for time.Now().Before(deadline) && !full {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err := p.Submit(ctx, "fill", block)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			full = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("queue never exerted backpressure")
	}
}

// TestPanicIsolation: a panicking job reports *PanicError; the pool
// (and its workers) survive to run later jobs.
func TestPanicIsolation(t *testing.T) {
	col := obs.New()
	p := farm.New(farm.Config{Workers: 2, Obs: col})
	defer p.Close()
	_, err := p.Do(context.Background(), "boom", func(context.Context) (any, error) {
		panic("kaboom")
	})
	var pe *farm.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "kaboom" || pe.Stack == "" {
		t.Fatalf("panic error not populated: %+v", pe)
	}
	v, err := p.Do(context.Background(), "after", func(context.Context) (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("pool dead after panic: v=%v err=%v", v, err)
	}
	if got := col.Metrics().Counter("farm.panics").Value(); got != 1 {
		t.Fatalf("farm.panics = %d, want 1", got)
	}
}

// TestCanceledJobSkipped: canceling the submit context before a queued
// job starts makes the worker skip it instead of running it.
func TestCanceledJobSkipped(t *testing.T) {
	col := obs.New()
	p := farm.New(farm.Config{Workers: 1, QueueDepth: 4, Obs: col})
	defer p.Close()
	release := make(chan struct{})
	p.Submit(context.Background(), "gate", func(context.Context) (any, error) {
		<-release
		return nil, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	fut, err := p.Submit(ctx, "victim", func(context.Context) (any, error) {
		ran.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)
	if _, err := fut.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatal("canceled job still ran")
	}
	if got := col.Metrics().Counter("farm.jobs_canceled").Value(); got != 1 {
		t.Fatalf("farm.jobs_canceled = %d, want 1", got)
	}
}

// TestCloseDrainsQueue: jobs already queued at Close still run to
// completion (graceful shutdown), then the workers exit.
func TestCloseDrainsQueue(t *testing.T) {
	p := farm.New(farm.Config{Workers: 2, QueueDepth: 32})
	var done atomic.Int32
	futs := make([]*farm.Future, 0, 16)
	for i := 0; i < 16; i++ {
		fut, err := p.Submit(context.Background(), "drain", func(context.Context) (any, error) {
			time.Sleep(100 * time.Microsecond)
			done.Add(1)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	p.Close()
	if got := done.Load(); got != 16 {
		t.Fatalf("Close returned with %d/16 jobs done", got)
	}
	for _, f := range futs {
		if _, err := f.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoGoroutineLeak: after heavy concurrent use — including canceled
// submits and a mid-flight shutdown — the goroutine count returns to
// its baseline (the stdlib-only goleak assertion the ISSUE calls for).
func TestNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		p := farm.New(farm.Config{Workers: 8, QueueDepth: 4})
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					fut, err := p.Submit(ctx, "churn", func(ctx context.Context) (any, error) {
						select {
						case <-time.After(50 * time.Microsecond):
						case <-ctx.Done():
						}
						return nil, ctx.Err()
					})
					if err != nil {
						return
					}
					fut.Wait(context.Background())
				}
			}()
		}
		time.Sleep(time.Millisecond)
		cancel()
		p.Close()
		wg.Wait()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

// TestPoolObsCoverage: every job carries a span under the pool's
// lifetime span, with worker and outcome attributes.
func TestPoolObsCoverage(t *testing.T) {
	clk := &obs.FakeClock{Step: 1}
	col := obs.NewWithClock(clk)
	p := farm.New(farm.Config{Workers: 1, Obs: col})
	for i := 0; i < 3; i++ {
		if _, err := p.Do(context.Background(), fmt.Sprintf("j%d", i), func(context.Context) (any, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	roots := col.Trace().Roots()
	if len(roots) != 1 || roots[0].Name != "farm.pool" {
		t.Fatalf("roots = %v", roots)
	}
	if got := len(roots[0].Children); got != 3 {
		t.Fatalf("pool span has %d children, want 3", got)
	}
	for _, c := range roots[0].Children {
		if c.Duration() <= 0 {
			t.Fatalf("job span %q has duration %d", c.Name, c.Duration())
		}
	}
	if got := col.Metrics().Counter("farm.jobs_completed").Value(); got != 3 {
		t.Fatalf("farm.jobs_completed = %d, want 3", got)
	}
}
