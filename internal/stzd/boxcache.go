package stzd

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// boxCache is the hot-box result tier: a bytes-budgeted LRU of fully
// decoded box payloads (raw little-endian bytes, exactly what the box
// endpoint serves), layered above the ReaderAt slab cache. The slab tier
// saves re-decoding a chunk; this tier saves even the window copy and
// serves a repeated hot query straight from memory. Keys carry the
// archive entry's generation, so replacing an archive under the same id
// can never serve stale windows — the old generation's entries simply
// age out of the LRU.
type boxCache struct {
	mu    sync.Mutex
	byKey map[string]*list.Element // values are *boxCacheEntry
	lru   *list.List               // front = most recently used
	bytes int64

	budget   int64
	maxEntry int64 // largest cacheable payload; bigger boxes bypass

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type boxCacheEntry struct {
	key  string
	data []byte
}

// maxBoxEntryBytes caps any single cached box payload: beyond this the
// buffering cost outweighs the reuse odds and the query streams instead.
const maxBoxEntryBytes = 16 << 20

func newBoxCache(budget int64) *boxCache {
	if budget <= 0 {
		return nil
	}
	maxEntry := budget / 4
	if maxEntry > maxBoxEntryBytes {
		maxEntry = maxBoxEntryBytes
	}
	if maxEntry < 1 {
		maxEntry = 1
	}
	return &boxCache{
		byKey:    map[string]*list.Element{},
		lru:      list.New(),
		budget:   budget,
		maxEntry: maxEntry,
	}
}

// cacheable reports whether a payload of n bytes may use the cache path;
// larger boxes stream directly (X-Stz-Cache: bypass).
func (c *boxCache) cacheable(n int64) bool { return c != nil && n <= c.maxEntry }

// get returns the cached payload for key, marking it most recently used,
// and counts the lookup as one hit or miss. The returned slice is shared
// and must not be mutated.
func (c *boxCache) get(key string) ([]byte, bool) {
	data, ok := c.lookup(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return data, ok
}

// lookup is get without counting: for a second look on behalf of a
// request whose get already counted.
func (c *boxCache) lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*boxCacheEntry).data, true
}

// put inserts a payload, evicting least-recently-used entries until the
// cache fits its budget. Oversized payloads are ignored.
func (c *boxCache) put(key string, data []byte) {
	if int64(len(data)) > c.maxEntry {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// A single-flight race can insert the same key twice; keep the
		// existing entry (identical content) and just refresh recency.
		c.lru.MoveToFront(el)
		return
	}
	for c.bytes+int64(len(data)) > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*boxCacheEntry)
		c.bytes -= int64(len(victim.data))
		c.lru.Remove(back)
		delete(c.byKey, victim.key)
		c.evictions.Add(1)
	}
	c.byKey[key] = c.lru.PushFront(&boxCacheEntry{key: key, data: data})
	c.bytes += int64(len(data))
}

// snapshot reports (entries, resident bytes) for /v1/stats.
func (c *boxCache) snapshot() (int, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.bytes
}
