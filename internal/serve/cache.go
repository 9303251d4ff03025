package serve

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity least-recently-used map from request key
// to marshalled result document. Safe for concurrent use. Reads promote;
// writes evict from the cold end. Entries never expire by time — results
// are deterministic functions of the key, so a cached entry can only be
// stale if the schema version changes, and the schema version is part of
// the key.
type lruCache struct {
	mu    sync.Mutex
	cap   int                      // immutable after construction
	ll    *list.List               //lint:guard mu — front = most recently used
	items map[string]*list.Element //lint:guard mu
}

type cacheEntry struct {
	key     string
	payload []byte
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached payload and promotes the entry.
func (c *lruCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).payload, true
}

// put inserts (or refreshes) an entry, evicting the least recently used
// one when over capacity.
func (c *lruCache) put(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).payload = payload
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, payload: payload})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}
