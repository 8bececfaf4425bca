package fleet_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/farm"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// httpFront is one of the two HTTP fronts that share farm.Front: a
// surid server or a surifleet coordinator, served over httptest.
type httpFront struct {
	url         string
	idPrefix    string // prefix of server-minted request IDs
	setDraining func(bool)
}

// farmFront serves a surid server whose pool is already closed, so
// every POST /rewrite answers 503 (farm.ErrClosed).
func farmFront(t *testing.T, col *obs.Collector) httpFront {
	p := farm.New(farm.Config{Workers: 1, Obs: col})
	s := farm.NewServer(p, farm.ServerOptions{})
	p.Close()
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return httpFront{url: srv.URL, idPrefix: "r", setDraining: s.SetDraining}
}

// fleetFront serves a coordinator with no workers, so every POST
// /rewrite answers 503 (no alive workers).
func fleetFront(t *testing.T, col *obs.Collector) httpFront {
	c := newCoordinator(t, fleet.Options{Obs: col})
	return httpFront{url: serveCoordinator(t, c).URL, idPrefix: "f", setDraining: c.SetDraining}
}

// TestFrontContract runs one endpoint contract against both fronts:
// /metrics formats, /debug/flight parameters and its 404 without a
// recorder, request-ID echo and minting, and the drain switch on
// /healthz and Retry-After.
func TestFrontContract(t *testing.T) {
	for _, fc := range []struct {
		name  string
		build func(*testing.T, *obs.Collector) httpFront
	}{{"farm", farmFront}, {"fleet", fleetFront}} {
		t.Run(fc.name, func(t *testing.T) {
			f := fc.build(t, obs.New().EnableFlight(64))
			get := func(t *testing.T, path string) (*http.Response, string) {
				t.Helper()
				resp, err := http.Get(f.url + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				return resp, string(body)
			}
			rewrite := func(t *testing.T, id string) *http.Response {
				t.Helper()
				req, _ := http.NewRequest(http.MethodPost, f.url+"/rewrite", strings.NewReader("junk"))
				if id != "" {
					req.Header.Set(farm.RequestIDHeader, id)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return resp
			}

			t.Run("metrics", func(t *testing.T) {
				resp, body := get(t, "/metrics")
				if ct := resp.Header.Get("Content-Type"); ct != obs.PrometheusContentType || !strings.Contains(body, "# TYPE ") {
					t.Fatalf("/metrics: Content-Type %q, body:\n%s", ct, body)
				}
				resp, body = get(t, "/metrics?format=text")
				if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" || !strings.HasPrefix(body, "counters:\n") {
					t.Fatalf("/metrics?format=text: Content-Type %q, body:\n%s", ct, body)
				}
			})

			t.Run("request-id", func(t *testing.T) {
				if got := rewrite(t, "client-7").Header.Get(farm.RequestIDHeader); got != "client-7" {
					t.Fatalf("supplied ID echoed as %q", got)
				}
				minted := rewrite(t, "").Header.Get(farm.RequestIDHeader)
				if !regexp.MustCompile(`^` + f.idPrefix + `\d{6}$`).MatchString(minted) {
					t.Fatalf("minted ID %q, want %s + 6 digits", minted, f.idPrefix)
				}
			})

			t.Run("flight", func(t *testing.T) {
				rewrite(t, "contract-1")
				rewrite(t, "contract-2")
				resp, body := get(t, "/debug/flight?req=contract-1")
				var dump struct {
					Events []obs.Event `json:"events"`
				}
				if err := json.Unmarshal([]byte(body), &dump); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("?req=: status %d, %v\n%s", resp.StatusCode, err, body)
				}
				if len(dump.Events) == 0 {
					t.Fatal("?req= returned no events")
				}
				for _, e := range dump.Events {
					if e.Req != "contract-1" {
						t.Fatalf("?req=contract-1 returned an event of %q", e.Req)
					}
				}
				dump.Events = nil
				if _, body := get(t, "/debug/flight?n=1"); json.Unmarshal([]byte(body), &dump) != nil || len(dump.Events) != 1 {
					t.Fatalf("?n=1 returned %d events:\n%s", len(dump.Events), body)
				}
				for _, n := range []string{"bogus", "-1"} {
					if resp, _ := get(t, "/debug/flight?n="+n); resp.StatusCode != http.StatusBadRequest {
						t.Fatalf("?n=%s: status %d, want 400", n, resp.StatusCode)
					}
				}
				bare := fc.build(t, obs.New())
				resp, err := http.Get(bare.url + "/debug/flight")
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Fatalf("no recorder: status %d, want 404", resp.StatusCode)
				}
			})

			t.Run("drain", func(t *testing.T) {
				health := func() (int, string) {
					resp, body := get(t, "/healthz")
					var h struct {
						Status string `json:"status"`
					}
					if err := json.Unmarshal([]byte(body), &h); err != nil {
						t.Fatal(err)
					}
					return resp.StatusCode, h.Status
				}
				if code, status := health(); code != http.StatusOK || status != "ok" {
					t.Fatalf("/healthz: %d %q, want 200 ok", code, status)
				}
				// The failing request still holds its slot: 1 + 1/1.
				if resp := rewrite(t, ""); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "2" {
					t.Fatalf("/rewrite: %d Retry-After %q, want 503 2", resp.StatusCode, resp.Header.Get("Retry-After"))
				}
				f.setDraining(true)
				if code, status := health(); code != http.StatusServiceUnavailable || status != "draining" {
					t.Fatalf("draining /healthz: %d %q, want 503 draining", code, status)
				}
				if resp := rewrite(t, ""); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "30" {
					t.Fatalf("draining /rewrite: %d Retry-After %q, want 503 30", resp.StatusCode, resp.Header.Get("Retry-After"))
				}
			})
		})
	}
}
