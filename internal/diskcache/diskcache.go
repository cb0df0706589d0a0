// Package diskcache persists expensive build artifacts — assembled
// broadcast cycles, border-precompute tables, generated graphs — as
// content-addressed files under a cache directory, so a restarted airserve
// warm-loads yesterday's build instead of re-running the Dijkstra storm.
//
// It is the disk layer under internal/servercache: servercache keeps built
// values alive in memory and singleflights concurrent builds; diskcache
// keeps their serialized forms across process restarts. Entries are keyed
// by the same canonical strings servercache keys are built from (network,
// scheme, params, cycle version), so a rebuilt-with-updates cycle lands in
// a new entry instead of invalidating the old one.
//
// On-disk format (one entry per file, name = truncated SHA-256 of the key):
//
//	off  0  magic "AIRD"
//	off  4  u32 format version (1)
//	off  8  u32 key length
//	off 12  u32 CRC-32C of the payload
//	off 16  u64 payload length
//	off 24  u32 CRC-32C of bytes [0,24) + key (the header check)
//	off 28  u32 reserved (0)
//	off 32  key bytes, zero-padded so the payload starts 64-byte aligned
//	...     payload
//
// Writes are atomic (temp file in the same directory, fsync, rename), so a
// crash mid-write leaves at worst an orphaned temp file, never a half
// entry; loads validate the header CRC, the stored key, and the payload
// CRC, and silently delete anything that fails — a corrupt entry is a
// cache miss, not an error. The payload's 64-byte alignment lets Map serve
// it straight out of the page cache: an mmap'd cycle or CSR section can be
// viewed as aligned []int32/[]float64 without copying.
//
// The byte budget is LRU: Put evicts least-recently-used entries (mtime
// order across restarts) until the directory fits. Eviction may unlink a
// file another process has mapped; POSIX keeps the mapping alive until
// unmapped, so readers never observe a torn payload.
package diskcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/mmap"
	"repro/internal/obs"
)

// Package-level instruments (DESIGN.md §10). Shared by every Cache in the
// process, like the servercache counters above this layer.
var (
	obsHits = obs.GetCounter("air_diskcache_hits_total",
		"entry loads served from a valid on-disk file")
	obsMisses = obs.GetCounter("air_diskcache_misses_total",
		"entry loads that found no usable file (absent or rejected)")
	obsEvictions = obs.GetCounter("air_diskcache_evictions_total",
		"entries evicted to keep the directory under its byte budget")
	obsCorrupt = obs.GetCounter("air_diskcache_corrupt_total",
		"entries rejected by magic/CRC/key validation and deleted")
	obsBytes = obs.GetGauge("air_diskcache_bytes",
		"bytes currently held by open disk caches")
	obsEntries = obs.GetGauge("air_diskcache_entries",
		"entries currently indexed by open disk caches")
	obsPutBytes = obs.GetCounter("air_diskcache_put_bytes_total",
		"payload bytes written into disk caches")
)

const (
	magic         = "AIRD"
	formatVersion = 1
	headerFixed   = 32        // bytes before the key
	payloadAlign  = 64        // payload offset alignment (mmap'd numeric views)
	entrySuffix   = ".aird"   // entry files; anything else in dir is ignored
	tempPrefix    = ".airtmp" // in-flight writes, cleaned up at Open
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Cache is one cache directory with an LRU byte budget. Safe for
// concurrent use; multiple Caches (even in different processes) may share
// a directory — writes are atomic and loads validate, so the worst case is
// duplicated build work, never a torn read.
type Cache struct {
	dir      string
	maxBytes int64 // <= 0 means unlimited

	mu      sync.Mutex
	entries map[string]*centry // file name -> entry
	size    int64              // sum of indexed file sizes
}

// centry is the in-memory index record for one on-disk entry.
type centry struct {
	name  string
	size  int64
	atime time.Time // last use (mtime across restarts)
}

// Open opens (creating if needed) the cache directory and indexes its
// existing entries, oldest-used first, so the LRU order survives a
// restart. Leftover temp files from a crashed writer are removed. maxBytes
// <= 0 disables the budget.
func Open(dir string, maxBytes int64) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	c := &Cache{dir: dir, maxBytes: maxBytes, entries: make(map[string]*centry)}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, tempPrefix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, entrySuffix) || de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		c.entries[name] = &centry{name: name, size: info.Size(), atime: info.ModTime()}
		c.size += info.Size()
	}
	obsEntries.Add(int64(len(c.entries)))
	obsBytes.Add(c.size)
	return c, nil
}

// Close drops the cache's in-memory index (files stay on disk for the next
// Open). Mappings handed out by Map stay valid until their own Close.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	obsEntries.Add(int64(-len(c.entries)))
	obsBytes.Add(-c.size)
	c.entries, c.size = make(map[string]*centry), 0
	return nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// fileName is the content address of a key: a truncated SHA-256, so keys
// of any length and character set become fixed-width portable file names.
// The full key is stored inside the entry and verified on load.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16]) + entrySuffix
}

// payloadOffset returns the aligned offset the payload starts at for a key.
func payloadOffset(keyLen int) int64 {
	off := int64(headerFixed + keyLen)
	return (off + payloadAlign - 1) &^ (payloadAlign - 1)
}

// header assembles the fixed header + key + padding for a finished entry.
func header(key string, payloadLen int64, payloadCRC uint32) []byte {
	off := payloadOffset(len(key))
	h := make([]byte, off)
	copy(h[0:4], magic)
	binary.LittleEndian.PutUint32(h[4:8], formatVersion)
	binary.LittleEndian.PutUint32(h[8:12], uint32(len(key)))
	binary.LittleEndian.PutUint32(h[12:16], payloadCRC)
	binary.LittleEndian.PutUint64(h[16:24], uint64(payloadLen))
	copy(h[headerFixed:], key)
	crc := crc32.Update(crc32.Checksum(h[:24], castagnoli), castagnoli, []byte(key))
	binary.LittleEndian.PutUint32(h[24:28], crc)
	return h
}

// parseHeader validates the fixed header + key of raw (at least
// headerFixed bytes) against the requested key and returns the payload
// offset, length and CRC.
func parseHeader(raw []byte, key string) (payOff, payLen int64, payCRC uint32, err error) {
	if len(raw) < headerFixed {
		return 0, 0, 0, fmt.Errorf("diskcache: entry shorter than header")
	}
	if string(raw[0:4]) != magic {
		return 0, 0, 0, fmt.Errorf("diskcache: bad magic %q", raw[0:4])
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != formatVersion {
		return 0, 0, 0, fmt.Errorf("diskcache: format version %d, want %d", v, formatVersion)
	}
	keyLen := int64(binary.LittleEndian.Uint32(raw[8:12]))
	if keyLen != int64(len(key)) || int64(len(raw)) < headerFixed+keyLen {
		return 0, 0, 0, fmt.Errorf("diskcache: key length mismatch")
	}
	stored := string(raw[headerFixed : headerFixed+keyLen])
	crc := crc32.Update(crc32.Checksum(raw[:24], castagnoli), castagnoli, []byte(stored))
	if crc != binary.LittleEndian.Uint32(raw[24:28]) {
		return 0, 0, 0, fmt.Errorf("diskcache: header CRC mismatch")
	}
	if stored != key {
		return 0, 0, 0, fmt.Errorf("diskcache: entry holds key %q, want %q (hash collision?)", stored, key)
	}
	payCRC = binary.LittleEndian.Uint32(raw[12:16])
	payLen = int64(binary.LittleEndian.Uint64(raw[16:24]))
	return payloadOffset(int(keyLen)), payLen, payCRC, nil
}

// Writer streams one entry's payload to disk. Write as much as needed,
// then Commit (atomic publish) or Abort (discard). The payload CRC is
// computed incrementally, so a multi-gigabyte cycle streams through
// without ever being resident.
type Writer struct {
	c    *Cache
	key  string
	f    *os.File
	off  int64 // payload bytes written
	crc  uint32
	done bool
}

// Create starts a new entry for key. The entry becomes visible to readers
// only at Commit; concurrent Creates for the same key race benignly (last
// rename wins, both contents are valid for the key).
func (c *Cache) Create(key string) (*Writer, error) {
	if key == "" {
		return nil, fmt.Errorf("diskcache: empty key")
	}
	f, err := os.CreateTemp(c.dir, tempPrefix+"-*")
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	// Reserve the header region; the real header lands at Commit, when the
	// payload length and CRC are known. Until then the file has a zero
	// magic and can never validate, even if a crash leaks it past cleanup.
	if _, err := f.Write(make([]byte, payloadOffset(len(key)))); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	return &Writer{c: c, key: key, f: f}, nil
}

// Write appends payload bytes.
func (w *Writer) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.crc = crc32.Update(w.crc, castagnoli, p[:n])
	w.off += int64(n)
	if err != nil {
		return n, fmt.Errorf("diskcache: %w", err)
	}
	return n, nil
}

// Commit finalizes the header, syncs, and atomically publishes the entry,
// then evicts LRU entries if the directory exceeds its budget.
func (w *Writer) Commit() error {
	if w.done {
		return fmt.Errorf("diskcache: writer already finished")
	}
	w.done = true
	name := fileName(w.key)
	final := filepath.Join(w.c.dir, name)
	cleanup := func(err error) error {
		w.f.Close()
		os.Remove(w.f.Name())
		return err
	}
	if _, err := w.f.WriteAt(header(w.key, w.off, w.crc), 0); err != nil {
		return cleanup(fmt.Errorf("diskcache: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return cleanup(fmt.Errorf("diskcache: %w", err))
	}
	if err := w.f.Close(); err != nil {
		return cleanup(fmt.Errorf("diskcache: %w", err))
	}
	if err := os.Rename(w.f.Name(), final); err != nil {
		os.Remove(w.f.Name())
		return fmt.Errorf("diskcache: %w", err)
	}
	size := payloadOffset(len(w.key)) + w.off
	obsPutBytes.Add(w.off)

	c := w.c
	c.mu.Lock()
	if old, ok := c.entries[name]; ok {
		c.size -= old.size
		obsBytes.Add(-old.size)
		obsEntries.Dec()
	}
	c.entries[name] = &centry{name: name, size: size, atime: time.Now()}
	c.size += size
	obsBytes.Add(size)
	obsEntries.Inc()
	c.evictLocked(name)
	c.mu.Unlock()
	return nil
}

// Abort discards the in-flight entry.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()
	os.Remove(w.f.Name())
}

// Put writes one entry in a single call (Create + Write + Commit).
func (c *Cache) Put(key string, payload []byte) error {
	w, err := c.Create(key)
	if err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		w.Abort()
		return err
	}
	return w.Commit()
}

// evictLocked drops least-recently-used entries until the directory fits
// the budget. keep (the entry just written) is never evicted — a single
// entry larger than the whole budget stays until something else replaces
// it, because evicting what we are about to serve would defeat the cache.
func (c *Cache) evictLocked(keep string) {
	if c.maxBytes <= 0 || c.size <= c.maxBytes {
		return
	}
	byAge := make([]*centry, 0, len(c.entries))
	for _, e := range c.entries {
		if e.name != keep {
			byAge = append(byAge, e)
		}
	}
	sort.Slice(byAge, func(i, j int) bool { return byAge[i].atime.Before(byAge[j].atime) })
	for _, e := range byAge {
		if c.size <= c.maxBytes {
			return
		}
		os.Remove(filepath.Join(c.dir, e.name))
		delete(c.entries, e.name)
		c.size -= e.size
		obsBytes.Add(-e.size)
		obsEntries.Dec()
		obsEvictions.Inc()
	}
}

// touchLocked refreshes an entry's LRU position, mirrored to the file
// mtime (best effort) so the order survives a restart.
func (c *Cache) touchLocked(name string) {
	e, ok := c.entries[name]
	if !ok {
		return
	}
	e.atime = time.Now()
	os.Chtimes(filepath.Join(c.dir, name), e.atime, e.atime)
}

// index registers a file discovered on disk after Open (written by another
// process sharing the directory).
func (c *Cache) index(name string, size int64) {
	c.mu.Lock()
	if _, ok := c.entries[name]; !ok {
		c.entries[name] = &centry{name: name, size: size, atime: time.Now()}
		c.size += size
		obsBytes.Add(size)
		obsEntries.Inc()
	}
	c.mu.Unlock()
}

// drop forgets (and deletes) an entry that failed validation or vanished.
func (c *Cache) drop(name string, corrupt bool) {
	path := filepath.Join(c.dir, name)
	c.mu.Lock()
	if e, ok := c.entries[name]; ok {
		delete(c.entries, name)
		c.size -= e.size
		obsBytes.Add(-e.size)
		obsEntries.Dec()
	}
	c.mu.Unlock()
	if corrupt {
		os.Remove(path)
		obsCorrupt.Inc()
	}
}

// Get loads the payload cached under key, or reports a miss. Corrupt
// entries (bad magic, CRC, or key) are deleted and reported as misses. The
// payload is a fresh heap copy; use Map to serve it from the page cache
// instead.
func (c *Cache) Get(key string) ([]byte, bool) {
	name := fileName(key)
	path := filepath.Join(c.dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.drop(name, false)
		}
		obsMisses.Inc()
		return nil, false
	}
	payOff, payLen, payCRC, err := parseHeader(raw, key)
	if err != nil || int64(len(raw)) < payOff+payLen {
		c.drop(name, true)
		obsMisses.Inc()
		return nil, false
	}
	payload := raw[payOff : payOff+payLen]
	if crc32.Checksum(payload, castagnoli) != payCRC {
		c.drop(name, true)
		obsMisses.Inc()
		return nil, false
	}
	c.index(name, int64(len(raw)))
	c.mu.Lock()
	c.touchLocked(name)
	c.mu.Unlock()
	obsHits.Inc()
	return payload, true
}

// Map opens the payload cached under key as a read-only memory mapping:
// the bytes live in the page cache, not the Go heap, and stay valid until
// Mapping.Close even if the entry is evicted meanwhile (POSIX keeps
// unlinked mappings alive). Validation is identical to Get. On platforms
// without mmap the payload is read into memory and Close is a no-op
// release.
func (c *Cache) Map(key string) (*Mapping, bool) {
	name := fileName(key)
	path := filepath.Join(c.dir, name)
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.drop(name, false)
		}
		obsMisses.Inc()
		return nil, false
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		obsMisses.Inc()
		return nil, false
	}
	data, err := mmap.File(f, info.Size())
	if err != nil {
		c.drop(name, false)
		obsMisses.Inc()
		return nil, false
	}
	m := &Mapping{data: data}
	raw := data.Bytes()
	payOff, payLen, payCRC, err := parseHeader(raw, key)
	if err != nil || int64(len(raw)) < payOff+payLen {
		m.Close()
		c.drop(name, true)
		obsMisses.Inc()
		return nil, false
	}
	m.payload = raw[payOff : payOff+payLen]
	if crc32.Checksum(m.payload, castagnoli) != payCRC {
		m.Close()
		c.drop(name, true)
		obsMisses.Inc()
		return nil, false
	}
	c.index(name, info.Size())
	c.mu.Lock()
	c.touchLocked(name)
	c.mu.Unlock()
	obsHits.Inc()
	return m, true
}

// Mapping is a validated read-only view of one entry's payload. Payload
// aliases the mapping — it must not be written to, and not used after
// Close.
type Mapping struct {
	data    *mmap.Data
	payload []byte
}

// Payload returns the entry payload. The slice is 64-byte aligned.
func (m *Mapping) Payload() []byte { return m.payload }

// Close releases the mapping. The payload slice is invalid afterwards.
func (m *Mapping) Close() error {
	data := m.data
	m.data, m.payload = nil, nil
	if data == nil {
		return nil
	}
	return data.Close()
}
