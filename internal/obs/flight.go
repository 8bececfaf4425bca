package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Event is one structured flight-recorder entry. Events are small value
// types: recording one copies a handful of words under a short mutex,
// so the recorder is cheap enough to leave always-on in a service.
//
// Kind is a small open vocabulary; the recorder does not interpret it.
// The pipeline and farm record:
//
//	stage        one completed Fig. 4 stage (Name = stage, Dur set)
//	stage_error  a pipeline stage died (Name = stage, Detail = error)
//	budget       a resource budget tripped (Detail = error)
//	cache        artifact-cache probe (Detail = hit|miss|disk_hit)
//	verdict      a validated rewrite concluded (Detail = verdict)
//	request      one HTTP request finished (Name = route, Detail = outcome)
type Event struct {
	// Seq is the 1-based global sequence number assigned by Record; gaps
	// in a snapshot mean the ring wrapped over older events.
	Seq uint64 `json:"seq"`

	// T is the recorder clock's reading at Record time (nanoseconds).
	T int64 `json:"t_ns"`

	// Req is the request ID the recording collector was scoped to, if any.
	Req string `json:"req,omitempty"`

	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Detail string `json:"detail,omitempty"`

	// Dur is an optional duration in nanoseconds (stage and request events).
	Dur int64 `json:"dur_ns,omitempty"`
}

// Flight is a bounded ring buffer of Events — the always-on crash
// forensics journal. Recording is concurrency-safe and O(1): one short
// mutex-guarded slot write, no allocation once the ring is full. A nil
// *Flight ignores every call, so the disabled path costs one pointer
// test and nothing else.
type Flight struct {
	mu    sync.Mutex
	clock Clock
	buf   []Event
	next  uint64 // total events ever recorded
}

// NewFlight returns a recorder holding the last capacity events (min 1)
// on the given clock (nil means the system monotonic clock).
func NewFlight(capacity int, clock Clock) *Flight {
	if capacity < 1 {
		capacity = 1
	}
	if clock == nil {
		clock = NewClock()
	}
	return &Flight{clock: clock, buf: make([]Event, 0, capacity)}
}

// Record stamps e with the next sequence number and the clock reading,
// then stores it, overwriting the oldest event once the ring is full.
func (f *Flight) Record(e Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	e.Seq = f.next + 1
	e.T = f.clock.Now()
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, e)
	} else {
		f.buf[f.next%uint64(cap(f.buf))] = e
	}
	f.next++
	f.mu.Unlock()
}

// Total returns the number of events ever recorded (>= len(Events())).
func (f *Flight) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Events returns the retained events oldest-first.
func (f *Flight) Events() []Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Event, 0, len(f.buf))
	if len(f.buf) < cap(f.buf) {
		return append(out, f.buf...)
	}
	start := f.next % uint64(cap(f.buf))
	out = append(out, f.buf[start:]...)
	return append(out, f.buf[:start]...)
}

// Last returns the newest n retained events oldest-first (all of them
// when n <= 0 or n exceeds the retained count).
func (f *Flight) Last(n int) []Event {
	evs := f.Events()
	if n > 0 && n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// RequestEvents returns the retained events recorded under request ID
// req, oldest-first — the per-request capture used by dump-on-error.
func (f *Flight) RequestEvents(req string) []Event {
	var out []Event
	for _, e := range f.Events() {
		if e.Req == req {
			out = append(out, e)
		}
	}
	return out
}

// flightJSON is the /debug/flight payload shape.
type flightJSON struct {
	Total  uint64  `json:"total"`
	Events []Event `json:"events"`
}

// JSON renders the newest n retained events (all when n <= 0) with the
// total recorded count, as indented deterministic JSON.
func (f *Flight) JSON(n int) ([]byte, error) {
	if f == nil {
		return []byte("{}"), nil
	}
	return f.render(f.Last(n))
}

// render marshals evs with the total recorded count.
func (f *Flight) render(evs []Event) ([]byte, error) {
	if evs == nil {
		evs = []Event{}
	}
	return json.MarshalIndent(flightJSON{Total: f.Total(), Events: evs}, "", "  ")
}

// FlightHandler serves GET /debug/flight for f: the newest ?n= events
// (all when absent), or only the events of request ?req=. A nil
// recorder answers 404 rather than passing an empty ring off as a
// healthy one. Errors use the servers' {"error": ...} body.
func FlightHandler(f *Flight) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f == nil {
			writeHTTPError(w, http.StatusNotFound, "obs: flight recorder disabled")
			return
		}
		n := 0
		if v := r.URL.Query().Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed < 0 {
				writeHTTPError(w, http.StatusBadRequest, fmt.Sprintf("obs: bad n %q", v))
				return
			}
			n = parsed
		}
		var evs []Event
		if req := r.URL.Query().Get("req"); req != "" {
			evs = f.RequestEvents(req)
		} else {
			evs = f.Last(n)
		}
		payload, err := f.render(evs)
		if err != nil {
			writeHTTPError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload)
		io.WriteString(w, "\n")
	})
}

func writeHTTPError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}
