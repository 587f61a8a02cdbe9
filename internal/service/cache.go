package service

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU cache from canonical request, compared as a value, to
// encoded response (document plus chunk offsets). Both bounds are enforced on
// every insert: total entry bytes and entry count; the
// least-recently-used entries are evicted first. A single value larger than
// the byte bound is simply not cached. Safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxBytes   int64
	maxEntries int
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[canonicalRequest]*list.Element
	evictions  int64
}

type cacheItem struct {
	key canonicalRequest
	val entry
}

// NewCache returns a cache bounded by maxBytes of payload and maxEntries
// values. Bounds <= 0 fall back to 64 MiB and 4096 entries.
func NewCache(maxBytes int64, maxEntries int) *Cache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	return &Cache{
		maxBytes:   maxBytes,
		maxEntries: maxEntries,
		ll:         list.New(),
		items:      make(map[canonicalRequest]*list.Element),
	}
}

// Get returns the cached entry for key and marks it most recently used. The
// returned slices are shared; callers must not modify them.
func (c *Cache) Get(key canonicalRequest) (entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		return entry{}, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*cacheItem).val, true
}

// Put inserts (or refreshes) key with val and evicts LRU entries until both
// bounds hold again. val is retained; callers must not modify it afterwards.
func (c *Cache) Put(key canonicalRequest, val entry) {
	if val.size() > c.maxBytes {
		return // would evict the whole cache and still not fit
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		it := e.Value.(*cacheItem)
		c.bytes += val.size() - it.val.size()
		it.val = val
		c.ll.MoveToFront(e)
	} else {
		c.items[key] = c.ll.PushFront(&cacheItem{key: key, val: val})
		c.bytes += val.size()
	}
	for (c.bytes > c.maxBytes || c.ll.Len() > c.maxEntries) && c.ll.Len() > 0 {
		back := c.ll.Back()
		it := back.Value.(*cacheItem)
		c.ll.Remove(back)
		delete(c.items, it.key)
		c.bytes -= it.val.size()
		c.evictions++
	}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the current total payload size.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Evictions returns the number of entries evicted so far.
func (c *Cache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
