package farm

import (
	"context"
	"errors"
	"sync"
)

// Group coalesces concurrent executions of the same content-addressed
// rewrite into one: the first caller for a key becomes the leader and
// runs fn; everyone else arriving before the leader finishes blocks and
// receives the leader's result. Rewrites are deterministic functions of
// their content address, so sharing one execution's artifact across all
// waiters is semantically free — it converts a thundering herd of
// identical requests into a single pipeline run.
//
// The zero Group is ready to use. It is safe for concurrent use.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[Key]*call[V]
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do runs fn once per concurrent key. The leader (second result true)
// executes fn under its own context; waiters block until the leader
// finishes or their own ctx is done, whichever comes first. A waiter
// whose leader failed with the *leader's* cancellation — while the
// waiter's own ctx is still live — re-enters and becomes (or joins) a
// new leader, so one impatient client cannot poison the herd.
func (g *Group[V]) Do(ctx context.Context, key Key, fn func() (V, error)) (V, bool, error) {
	for {
		g.mu.Lock()
		if g.calls == nil {
			g.calls = make(map[Key]*call[V])
		}
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				var zero V
				return zero, false, ctx.Err()
			}
			if c.err != nil && IsCancellation(c.err) && ctx.Err() == nil {
				continue // the leader was canceled, not us: retry
			}
			return c.val, false, c.err
		}
		c := &call[V]{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()

		c.val, c.err = fn()
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		return c.val, true, c.err
	}
}

// IsCancellation reports whether err is a context cancellation or
// deadline error — the leader-specific failures a live waiter should
// not inherit.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
