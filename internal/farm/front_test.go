package farm_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/farm"
)

// TestServeAndDrain: ending the daemon's context flips /healthz to 503
// while a request is still in flight, lets that request finish with
// 200, and only then returns, having closed the pool.
func TestServeAndDrain(t *testing.T) {
	p := farm.New(farm.Config{Workers: 1})
	server := farm.NewServer(p, farm.ServerOptions{})
	// A handler that holds its request until released stands in for a
	// long rewrite.
	started, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/", server)
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- farm.ServeAndDrain(ctx, "test", ln, mux, server.SetDraining, p.Close) }()

	status := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-started

	cancel()
	healthz := func() int {
		rec := httptest.NewRecorder()
		server.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rec.Code
	}
	waitFor(t, func() bool { return healthz() == http.StatusServiceUnavailable })
	select {
	case err := <-served:
		t.Fatalf("returned with a request in flight: %v", err)
	default:
	}

	close(release)
	if got := <-status; got != http.StatusOK {
		t.Fatalf("in-flight request: status %d, want 200", got)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeAndDrain: %v", err)
	}
	if _, err := p.Submit(context.Background(), "late", func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, farm.ErrClosed) {
		t.Fatalf("pool still open after drain: %v", err)
	}
}
