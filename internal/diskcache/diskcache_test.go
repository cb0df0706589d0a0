package diskcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the quick brown cycle")
	if err := c.Put("net|NR|r=8|v0", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("net|NR|r=8|v0")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := c.Get("net|NR|r=8|v1"); ok {
		t.Fatal("Get of an absent version hit")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestMapAlignmentAndAliasing(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Keys of awkward lengths must still produce aligned payloads.
	for _, key := range []string{"k", strings.Repeat("x", 63), strings.Repeat("y", 64), strings.Repeat("z", 129)} {
		payload := bytes.Repeat([]byte{0xAB}, 8192)
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		m, ok := c.Map(key)
		if !ok {
			t.Fatalf("Map(%q) missed", key)
		}
		if !bytes.Equal(m.Payload(), payload) {
			t.Fatalf("Map(%q) payload differs", key)
		}
		if off := payloadOffset(len(key)); off%payloadAlign != 0 {
			t.Fatalf("payload offset %d for key len %d not %d-aligned", off, len(key), payloadAlign)
		}
		// The mapping survives eviction of its file: unlink + read.
		os.Remove(filepath.Join(c.dir, fileName(key)))
		if !bytes.Equal(m.Payload(), payload) {
			t.Fatal("mapping unreadable after unlink")
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptEntriesRejected flips bytes across the whole entry file —
// header, key, payload — and requires every corruption to be detected,
// counted, deleted, and served as a miss, never as data.
func TestCorruptEntriesRejected(t *testing.T) {
	dir := t.TempDir()
	key := "net|EB|r=16|v3"
	payload := []byte("precompute tables, 40 bytes of them, yes")
	for _, flip := range []int{0, 5, 9, 13, 20, 40, 70, 100} {
		c, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fileName(key))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if flip >= len(raw) {
			t.Fatalf("flip offset %d beyond entry size %d", flip, len(raw))
		}
		raw[flip] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		before := obsCorrupt.Value()
		if got, ok := c.Get(key); ok {
			t.Fatalf("corrupt entry (flip at %d) served: %q", flip, got)
		}
		if obsCorrupt.Value() != before+1 {
			t.Fatalf("flip at %d not counted corrupt", flip)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry (flip at %d) not deleted", flip)
		}
		// Map must reject identically.
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		raw, _ = os.ReadFile(path)
		raw[flip] ^= 0x40
		os.WriteFile(path, raw, 0o644)
		if m, ok := c.Map(key); ok {
			m.Close()
			t.Fatalf("corrupt entry (flip at %d) mapped", flip)
		}
		os.Remove(path)
		c.Close()
	}
}

// TestTruncatedEntryRejected: a crash can leave a shorter file only via a
// torn rename (never happens — rename is atomic) or manual tampering, but
// the loader must still refuse it.
func TestTruncatedEntryRejected(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir, 0)
	key := "trunc"
	if err := c.Put(key, bytes.Repeat([]byte{1}, 1000)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fileName(key))
	if err := os.Truncate(path, 200); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("truncated entry served")
	}
}

// TestEvictionUnderBudget: the LRU budget holds — oldest-used entries go
// first, the directory stays under maxBytes, and the eviction counter
// moves.
func TestEvictionUnderBudget(t *testing.T) {
	dir := t.TempDir()
	entry := payloadOffset(2) + 1024 // each entry's on-disk size (2-byte keys)
	c, err := Open(dir, 3*entry)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 1024)
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	evicted := obsEvictions.Value()
	for i, k := range keys {
		if err := c.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so the LRU order is unambiguous even on coarse
		// filesystem timestamps.
		past := time.Now().Add(time.Duration(i-10) * time.Minute)
		os.Chtimes(filepath.Join(dir, fileName(k)), past, past)
		e := c.entries[fileName(k)]
		e.atime = past
	}
	if c.Bytes() > 3*entry {
		t.Fatalf("cache %d bytes over budget %d", c.Bytes(), 3*entry)
	}
	if got := obsEvictions.Value() - evicted; got != 2 {
		t.Fatalf("%d evictions, want 2", got)
	}
	// The two oldest are gone, the three newest remain.
	for i, k := range keys {
		_, ok := c.Get(k)
		if want := i >= 2; ok != want {
			t.Errorf("after eviction, Get(%s) = %v, want %v", k, ok, want)
		}
	}
	// A recently-used entry survives the next eviction round: touch k2,
	// then push one more entry in.
	c.Get("k2")
	if err := c.Put("k5", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k2"); !ok {
		t.Error("recently-used entry evicted before older ones")
	}
	if _, ok := c.Get("k3"); ok {
		t.Error("LRU entry k3 survived over recently-used k2")
	}
}

// TestOversizedEntryKept: one entry bigger than the whole budget is kept
// (evicting the thing just built would defeat the cache) but evicts
// everything else.
func TestOversizedEntryKept(t *testing.T) {
	c, err := Open(t.TempDir(), 512)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("small", []byte("x"))
	if err := c.Put("big", bytes.Repeat([]byte{1}, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("big"); !ok {
		t.Fatal("over-budget entry evicted itself")
	}
	if _, ok := c.Get("small"); ok {
		t.Error("small entry survived an over-budget put")
	}
}

// TestWarmRestartReuse is the warm-restart contract: a second Open of the
// same directory serves yesterday's entries as hits, proven by the hit and
// miss counters.
func TestWarmRestartReuse(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := "germany|NR|r=16|v0"
	payload := bytes.Repeat([]byte{3}, 10_000)
	misses := obsMisses.Value()
	if _, ok := c1.Get(key); ok {
		t.Fatal("cold Get hit")
	}
	if obsMisses.Value() != misses+1 {
		t.Fatal("cold Get not counted a miss")
	}
	if err := c1.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// "Restart": a fresh Cache over the same dir.
	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 1 {
		t.Fatalf("restarted cache indexes %d entries, want 1", c2.Len())
	}
	hits := obsHits.Value()
	got, ok := c2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("warm restart missed")
	}
	if obsHits.Value() != hits+1 {
		t.Fatal("warm Get not counted a hit")
	}
}

// TestTwoHandlesOneDir: two Caches over one directory (two processes in
// spirit) — entries written through one are visible to the other, even
// after the other's Open, and concurrent cold writes of the same key
// converge without corruption.
func TestTwoHandlesOneDir(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("shared", []byte("from a")); err != nil {
		t.Fatal(err)
	}
	// b's index predates the write; Get must still find it on disk.
	got, ok := b.Get("shared")
	if !ok || string(got) != "from a" {
		t.Fatalf("handle b missed a's write: %q, %v", got, ok)
	}
	if b.Len() != 1 {
		t.Fatalf("handle b indexed %d entries after the hit", b.Len())
	}

	// Concurrent cold writes of the same key from both handles: last
	// rename wins, every read sees one of the two valid payloads.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := a
			if i%2 == 1 {
				h = b
			}
			if err := h.Put("contended", []byte(fmt.Sprintf("writer %d", i%2))); err != nil {
				t.Error(err)
			}
			if got, ok := h.Get("contended"); ok {
				if s := string(got); s != "writer 0" && s != "writer 1" {
					t.Errorf("torn read: %q", s)
				}
			}
		}(i)
	}
	wg.Wait()
	got, ok = a.Get("contended")
	if !ok {
		t.Fatal("contended entry lost")
	}
	if s := string(got); s != "writer 0" && s != "writer 1" {
		t.Fatalf("final contended payload torn: %q", s)
	}
}

// TestConcurrentGetsAndPuts hammers one cache from many goroutines under
// -race: distinct keys, repeated keys, reads during writes, and an LRU
// budget forcing evictions mid-flight.
func TestConcurrentGetsAndPuts(t *testing.T) {
	c, err := Open(t.TempDir(), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(w)}, 2048)
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", (w*50+i)%20)
				if err := c.Put(key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := c.Get(key); ok && len(got) != len(payload) {
					t.Errorf("short read: %d bytes", len(got))
				}
				if m, ok := c.Map(key); ok {
					if len(m.Payload()) != len(payload) {
						t.Errorf("short map: %d bytes", len(m.Payload()))
					}
					m.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() > 64<<10 {
		t.Fatalf("budget blown: %d bytes", c.Bytes())
	}
}

// TestStreamingWriter: the Create/Write/Commit path streams a payload in
// small chunks and publishes an entry identical to a one-shot Put.
func TestStreamingWriter(t *testing.T) {
	c, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Create("streamed")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i := 0; i < 100; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 123)
		want.Write(chunk)
		if _, err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	// Until Commit, readers must miss.
	if _, ok := c.Get("streamed"); ok {
		t.Fatal("uncommitted entry visible")
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("streamed")
	if !ok || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed entry mismatch (%d vs %d bytes)", len(got), want.Len())
	}

	// Abort leaves nothing behind.
	w2, _ := c.Create("aborted")
	w2.Write([]byte("half"))
	w2.Abort()
	if _, ok := c.Get("aborted"); ok {
		t.Fatal("aborted entry visible")
	}
	des, _ := os.ReadDir(c.Dir())
	for _, de := range des {
		if strings.HasPrefix(de.Name(), tempPrefix) {
			t.Fatalf("temp file leaked: %s", de.Name())
		}
	}
}

// TestOpenCleansTempFiles: leftover temp files from a crashed writer are
// swept at Open and never indexed.
func TestOpenCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, tempPrefix+"-123"), []byte("crashed"), 0o644)
	os.WriteFile(filepath.Join(dir, "README"), []byte("not an entry"), 0o644)
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("indexed %d entries from junk", c.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, tempPrefix+"-123")); !os.IsNotExist(err) {
		t.Fatal("crashed temp file not cleaned")
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("non-entry file removed")
	}
}

// Len returns the number of indexed entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the indexed on-disk footprint.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
