package fleet

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
)

// lineWriter serializes NDJSON result lines from concurrent batch jobs
// onto one response stream, flushing after every line so the client
// sees each result the moment it exists.
type lineWriter struct {
	mu     sync.Mutex
	enc    *json.Encoder
	flush  http.Flusher
	ok     atomic.Int64
	failed atomic.Int64
}

func (l *lineWriter) write(v any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.enc.Encode(v)
	if l.flush != nil {
		l.flush.Flush()
	}
}

func (l *lineWriter) addOK()     { l.ok.Add(1) }
func (l *lineWriter) addFailed() { l.failed.Add(1) }

func (l *lineWriter) totals() (ok, failed int64) {
	return l.ok.Load(), l.failed.Load()
}

// newLineScanner builds a scanner whose line budget matches the batch
// body limit: one NDJSON job line carries a base64 binary, so the
// default 64 KiB token cap would reject any real program.
func newLineScanner(r io.Reader, maxLine int) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	if maxLine < 1<<16 {
		maxLine = 1 << 16
	}
	sc.Buffer(make([]byte, 64<<10), maxLine)
	return sc
}
