package farm_test

import (
	"bytes"
	"repro/internal/asm"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/instr"
	"repro/internal/serialize"
)

func art(tag byte) *farm.Artifact {
	return &farm.Artifact{
		Binary: []byte{0x7f, 'E', 'L', 'F', tag},
		Stats:  core.Stats{Blocks: int(tag), RewrittenBytes: 5},
	}
}

func key(tag byte) farm.Key {
	k, ok := farm.Fingerprint([]byte{tag}, core.Options{})
	if !ok {
		panic("uncacheable")
	}
	return k
}

// TestFingerprint: the content address covers the binary bytes and
// every cache-relevant option; instrumented rewrites are uncacheable.
func TestFingerprint(t *testing.T) {
	base, ok := farm.Fingerprint([]byte("bin"), core.Options{})
	if !ok {
		t.Fatal("plain rewrite must be cacheable")
	}
	if k, _ := farm.Fingerprint([]byte("bin2"), core.Options{}); k == base {
		t.Fatal("different binaries share a key")
	}
	if k, _ := farm.Fingerprint([]byte("bin"), core.Options{IgnoreEhFrame: true}); k == base {
		t.Fatal("IgnoreEhFrame not fingerprinted")
	}
	if k, _ := farm.Fingerprint([]byte("bin"), core.Options{AllowNonCET: true}); k == base {
		t.Fatal("AllowNonCET not fingerprinted")
	}
	if k2, _ := farm.Fingerprint([]byte("bin"), core.Options{}); k2 != base {
		t.Fatal("fingerprint not deterministic")
	}
	if _, ok := farm.Fingerprint([]byte("bin"), core.Options{
		Instrument: func(e []serialize.Entry, _ *asm.Symtab) ([]serialize.Entry, error) { return e, nil },
	}); ok {
		t.Fatal("instrumented rewrite must be uncacheable: the hook's behaviour cannot be hashed")
	}

	// Standard passes declare stable identities, so pass-instrumented
	// artifacts are cacheable — under their own content address.
	cov, ok := farm.Fingerprint([]byte("bin"), core.Options{Passes: []instr.Pass{instr.Coverage{}}})
	if !ok {
		t.Fatal("fingerprinted pass must be cacheable")
	}
	if cov == base {
		t.Fatal("pass list not fingerprinted: instrumented and plain artifacts share a key")
	}
	if k, _ := farm.Fingerprint([]byte("bin"), core.Options{Passes: []instr.Pass{instr.Counters{}}}); k == cov {
		t.Fatal("different passes share a key")
	}
	if k, _ := farm.Fingerprint([]byte("bin"), core.Options{Passes: []instr.Pass{instr.Coverage{Blocks: true}}}); k == cov {
		t.Fatal("pass variants share a key")
	}
	if _, ok := farm.Fingerprint([]byte("bin"), core.Options{Passes: []instr.Pass{anonPass{}}}); ok {
		t.Fatal("a pass without a Fingerprint must make the rewrite uncacheable")
	}
}

// anonPass implements instr.Pass but not instr.Fingerprinter.
type anonPass struct{}

func (anonPass) Name() string               { return "anon" }
func (anonPass) Setup(*instr.Context) error { return nil }
func (anonPass) Visit(*instr.Context, instr.Site) ([]serialize.Entry, []serialize.Entry) {
	return nil, nil
}
func (anonPass) Epilogue(*instr.Context) []serialize.Entry { return nil }

// TestCacheLRU: memory keeps the most recently used entries; eviction
// without a persistence dir is a true miss.
func TestCacheLRU(t *testing.T) {
	c, err := farm.NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), art(1))
	c.Put(key(2), art(2))
	if _, ok := c.Get(key(1)); !ok { // 1 becomes most-recent
		t.Fatal("miss on resident entry")
	}
	c.Put(key(3), art(3)) // evicts 2 (LRU), not 1
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("recently-used entry was evicted")
	}
	if _, ok := c.Get(key(3)); !ok {
		t.Fatal("fresh entry missing")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evicted != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheHitAfterEviction: with a persistence dir, an entry evicted
// from memory is transparently reloaded from disk — byte-identical —
// and promoted back into memory.
func TestCacheHitAfterEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := farm.NewCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key(1), art(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key(2), art(2)); err != nil { // evicts 1 from memory
		t.Fatal(err)
	}
	got, ok := c.Get(key(1))
	if !ok {
		t.Fatal("evicted entry not served from disk")
	}
	if !bytes.Equal(got.Binary, art(1).Binary) || got.Stats != art(1).Stats {
		t.Fatalf("disk round-trip mutated the artifact: %+v", got)
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want one disk hit", st)
	}
	// Promoted back into memory: the next Get is a memory hit.
	before := c.Stats().Hits
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("promoted entry missing")
	}
	if c.Stats().Hits != before+1 {
		t.Fatal("disk hit was not promoted into memory")
	}
}

// TestCachePersistence: a fresh Cache over the same dir still serves
// artifacts written by a previous instance (surid restarts warm).
func TestCachePersistence(t *testing.T) {
	dir := t.TempDir()
	c1, _ := farm.NewCache(4, dir)
	if err := c1.Put(key(9), art(9)); err != nil {
		t.Fatal(err)
	}
	c2, _ := farm.NewCache(4, dir)
	got, ok := c2.Get(key(9))
	if !ok || !bytes.Equal(got.Binary, art(9).Binary) {
		t.Fatalf("artifact did not survive restart: ok=%v", ok)
	}
	if err := c2.Purge(); err != nil {
		t.Fatal(err)
	}
	c3, _ := farm.NewCache(4, dir)
	if _, ok := c3.Get(key(9)); ok {
		t.Fatal("artifact survived Purge")
	}
}

// TestCacheConcurrent hammers the cache from many goroutines (run
// under -race).
func TestCacheConcurrent(t *testing.T) {
	c, _ := farm.NewCache(8, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tag := byte((g + i) % 16)
				if i%2 == 0 {
					c.Put(key(tag), art(tag))
				} else if got, ok := c.Get(key(tag)); ok && got.Binary[4] != tag {
					t.Errorf("wrong artifact for tag %d", tag)
				}
			}
		}(g)
	}
	wg.Wait()
}
