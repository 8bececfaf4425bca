package obs

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSpanNesting drives the trace with a deterministic pseudo-random
// sequence of Start/End operations against a reference stack model and
// then checks the structural properties of the resulting tree: stops
// not before starts, children contained in their parents, siblings in
// start order, and shape identical to the model.
func TestSpanNesting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clock := &FakeClock{Step: 1}
	tr := NewTrace(clock)

	type node struct {
		name     string
		children []*node
	}
	rootModel := &node{name: "root"}
	modelStack := []*node{rootModel}
	spanStack := []*Span{tr.Start("root")}

	for i := 0; i < 500; i++ {
		if rng.Intn(2) == 0 || len(spanStack) == 1 {
			name := string(rune('a' + rng.Intn(26)))
			parent := modelStack[len(modelStack)-1]
			child := &node{name: name}
			parent.children = append(parent.children, child)
			modelStack = append(modelStack, child)
			spanStack = append(spanStack, tr.Start(name))
		} else {
			spanStack[len(spanStack)-1].End()
			spanStack = spanStack[:len(spanStack)-1]
			modelStack = modelStack[:len(modelStack)-1]
		}
	}
	spanStack[0].End() // closes everything still open

	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}

	var check func(s *Span, m *node, lo, hi int64)
	check = func(s *Span, m *node, lo, hi int64) {
		if s.Name != m.name {
			t.Fatalf("span %q, model %q", s.Name, m.name)
		}
		if s.Stop < s.Start {
			t.Fatalf("span %q: stop %d before start %d", s.Name, s.Stop, s.Start)
		}
		if s.Start < lo || s.Stop > hi {
			t.Fatalf("span %q [%d,%d] escapes parent [%d,%d]", s.Name, s.Start, s.Stop, lo, hi)
		}
		if len(s.Children) != len(m.children) {
			t.Fatalf("span %q: %d children, model %d", s.Name, len(s.Children), len(m.children))
		}
		prev := int64(-1)
		for i, c := range s.Children {
			if c.Start < prev {
				t.Fatalf("span %q: child %q starts before its elder sibling", s.Name, c.Name)
			}
			prev = c.Start
			check(c, m.children[i], s.Start, s.Stop)
		}
	}
	check(roots[0], rootModel, 0, clock.T)
}

// TestEndClosesOpenDescendants: ending an outer span must close any
// children the caller forgot to end, with the same timestamp.
func TestEndClosesOpenDescendants(t *testing.T) {
	clock := &FakeClock{Step: 1}
	tr := NewTrace(clock)
	outer := tr.Start("outer")
	inner := tr.Start("inner")
	outer.End() // inner never explicitly ended
	if inner.Stop != outer.Stop {
		t.Fatalf("inner stop %d != outer stop %d", inner.Stop, outer.Stop)
	}
	if next := tr.Start("next"); len(tr.Roots()) != 2 || next == nil {
		t.Fatalf("stack not unwound: roots=%d", len(tr.Roots()))
	}
}

// TestConcurrentCounters hammers one counter and a histogram from many
// goroutines; run under -race via scripts/check.sh.
func TestConcurrentCounters(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("shared").Inc()
				reg.Gauge("last").Set(int64(w))
				reg.Histogram("h", []int64{10, 100}).Observe(int64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	snap := reg.Snapshot()
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != workers*perWorker {
		t.Fatalf("histogram snapshot wrong: %+v", snap.Histograms)
	}
	var sum int64
	for _, n := range snap.Histograms[0].Counts {
		sum += n
	}
	if sum != workers*perWorker {
		t.Fatalf("bucket counts sum to %d, want %d", sum, workers*perWorker)
	}
}

// TestNilPathZeroAlloc: the entire disabled path — nil collector, nil
// trace, nil spans, nil metrics, nil flight recorder — must allocate
// nothing.
func TestNilPathZeroAlloc(t *testing.T) {
	var c *Collector
	n := testing.AllocsPerRun(200, func() {
		tr := c.Trace()
		s := tr.Start("stage")
		s.SetInt("k", 1)
		s.SetStr("s", "v")
		s.End()
		reg := c.Metrics()
		reg.Counter("a").Add(3)
		reg.Gauge("g").Set(2)
		reg.Histogram("h", nil).Observe(5)
		reg.LatencyHistogram("l").Observe(7)
		c.Record(Event{Kind: "stage", Name: "cfg", Dur: 1})
		c.Flight().Record(Event{Kind: "stage"})
		_ = c.Flight().Total()
		_ = c.Text()
	})
	if n != 0 {
		t.Fatalf("nil path allocated %.1f objects per run, want 0", n)
	}
}

// TestFlightlessCollectorZeroAlloc: a live collector WITHOUT a flight
// recorder must also record events allocation-free — that is the
// "disabled recorder" configuration of a traced rewrite.
func TestFlightlessCollectorZeroAlloc(t *testing.T) {
	c := New().MetricsOnly()
	n := testing.AllocsPerRun(200, func() {
		c.Record(Event{Kind: "stage", Name: "cfg", Dur: 1})
		c.Flight().Record(Event{Kind: "stage"})
	})
	if n != 0 {
		t.Fatalf("flightless Record allocated %.1f objects per run, want 0", n)
	}
}

// TestHistogramBuckets checks bound edges land in the right buckets.
func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []int64{1, 2, 4})
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	snap := reg.Snapshot().Histograms[0]
	want := []int64{2, 1, 2, 2} // le1:{0,1} le2:{2} le4:{3,4} inf:{5,100}
	for i, n := range want {
		if snap.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, snap.Counts[i], n, snap.Counts)
		}
	}
	if snap.Sum != 0+1+2+3+4+5+100 || snap.Count != 7 {
		t.Fatalf("sum=%d count=%d", snap.Sum, snap.Count)
	}
}

// TestRegistryIdentity: the same name must return the same instance.
func TestRegistryIdentity(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Fatal("counter identity broken")
	}
	if reg.Gauge("x") != reg.Gauge("x") {
		t.Fatal("gauge identity broken")
	}
	if reg.Histogram("x", []int64{1}) != reg.Histogram("x", nil) {
		t.Fatal("histogram identity broken")
	}
}
