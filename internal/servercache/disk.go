package servercache

import (
	"fmt"
	"io"
	"log"
	"sync"

	"repro/internal/broadcast"
	"repro/internal/diskcache"
	"repro/internal/precompute"
)

// The disk tier persists the two build artifacts worth surviving a process
// restart — assembled broadcast cycles and the border pre-computation —
// under the same version-keyed identity the in-memory cache uses. A warm
// restart then skips the Dijkstra storm: the build path (internal/build)
// loads the cycle straight from an mmap'd cache entry (page-cache, not
// heap) and wraps it in a server, instead of rebuilding.
//
// The tier is deliberately narrow: values cached in memory are arbitrary
// Go objects, but only codec-backed artifacts cross the process boundary.
// Everything else rebuilds as before.
var (
	diskMu sync.RWMutex
	disk   *diskcache.Cache
	// pinned keeps the mmaps backing decoded cycles alive: a cycle returned
	// by CachedCycle aliases its mapping for the process lifetime, exactly
	// like in-memory cache entries live forever — across a replaced tier
	// too: a deployment built from the old directory may still be serving
	// it. Only DisableDisk unmaps them, so it must only run when those
	// cycles are no longer in use (tests).
	pinned []*diskcache.Mapping
)

// EnableDisk attaches a persistent cache tier rooted at dir with an LRU
// byte budget (0 = unbounded). Calling it again replaces the tier: the
// previous directory's index is closed, but cycles already loaded from it
// stay mapped and valid until DisableDisk.
func EnableDisk(dir string, maxBytes int64) error {
	c, err := diskcache.Open(dir, maxBytes)
	if err != nil {
		return fmt.Errorf("servercache: disk tier: %w", err)
	}
	diskMu.Lock()
	defer diskMu.Unlock()
	if disk != nil {
		disk.Close()
	}
	disk = c
	return nil
}

// DisableDisk detaches the disk tier and releases every mapping handed out
// through CachedCycle, from whichever directory. Cycles CachedCycle returned
// become invalid — only tests tear down the tier mid-process. Any in-memory
// entry may alias one of those mappings, so every entry is dropped first.
func DisableDisk() {
	diskMu.Lock()
	defer diskMu.Unlock()
	Flush()
	for _, m := range pinned {
		m.Close()
	}
	pinned = nil
	if disk != nil {
		disk.Close()
		disk = nil
	}
}

// Disk returns the attached disk tier, or nil when none is enabled.
func Disk() *diskcache.Cache {
	diskMu.RLock()
	defer diskMu.RUnlock()
	return disk
}

// id canonicalizes a Key plus an artifact part name ("cycle", "border")
// into the disk tier's string key. NUL separators keep distinct fields
// from colliding ("a"+"bc" vs "ab"+"c").
func (k Key) id(part string) string {
	return fmt.Sprintf("%s\x00%s\x00%s\x00v%d\x00%s", k.Network, k.Scheme, k.Params, k.Version, part)
}

// put streams one artifact's encoding into the disk entry for (key, part),
// so the encoded form never materializes in memory. A nil disk tier, or any
// failure, is non-fatal: the cache is an accelerator, and a build that
// cannot persist still serves — the error is logged and the partial entry
// discarded.
func put(key Key, part string, encode func(io.Writer) error) {
	d := Disk()
	if d == nil {
		return
	}
	w, err := d.Create(key.id(part))
	if err == nil {
		if err = encode(w); err != nil {
			w.Abort()
		} else {
			err = w.Commit()
		}
	}
	if err != nil {
		log.Printf("servercache: persist %s %s/%s v%d: %v", part, key.Network, key.Scheme, key.Version, err)
	}
}

// PutCycle persists an assembled cycle under key.
func PutCycle(key Key, c *broadcast.Cycle) {
	put(key, "cycle", func(w io.Writer) error { return broadcast.EncodeCycle(w, c) })
}

// CachedCycle loads the cycle persisted under key from the disk tier,
// serving packet payloads directly out of an mmap'd cache entry: decoding
// a continent-scale cycle costs page-cache, not heap. Returns nil when the
// tier is disabled, the entry is absent, or it fails validation (corrupt
// entries are dropped by the tier; a decode failure is logged). The cycle
// stays valid until DisableDisk.
func CachedCycle(key Key) *broadcast.Cycle {
	diskMu.Lock()
	defer diskMu.Unlock()
	if disk == nil {
		return nil
	}
	m, ok := disk.Map(key.id("cycle"))
	if !ok {
		return nil
	}
	c, err := broadcast.DecodeCycle(m.Payload())
	if err != nil {
		m.Close()
		log.Printf("servercache: cached cycle %s/%s v%d rejected: %v", key.Network, key.Scheme, key.Version, err)
		return nil
	}
	pinned = append(pinned, m)
	return c
}

// PutBorder persists the border pre-computation for n regions under key.
func PutBorder(key Key, b *precompute.BorderData, n int) {
	put(key, "border", func(w io.Writer) error { return precompute.EncodeBorder(w, b, n) })
}

// CachedBorder loads the border pre-computation persisted under key, with
// the region count it was computed for. The decoded matrices own their
// memory (they are modest: n×n), so no mapping is pinned. Returns ok=false
// when the tier is disabled or the entry is absent or invalid.
func CachedBorder(key Key) (*precompute.BorderData, int, bool) {
	d := Disk()
	if d == nil {
		return nil, 0, false
	}
	raw, ok := d.Get(key.id("border"))
	if !ok {
		return nil, 0, false
	}
	b, n, err := precompute.DecodeBorder(raw)
	if err != nil {
		log.Printf("servercache: cached border %s/%s v%d rejected: %v", key.Network, key.Scheme, key.Version, err)
		return nil, 0, false
	}
	return b, n, true
}
