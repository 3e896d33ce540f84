package serve

import "sync"

// cacheBytes is the response cache's budget: the most bytes of bodies
// it holds at once.
const cacheBytes = 16 << 20

// responseCache is the daemon's one cache: complete 200 responses keyed
// by "op:digest" (see cacheKey), bounded by the bytes of their bodies.
// A put evicts the oldest entries until the new body fits; a body larger
// than the whole budget is served but never cached.
type responseCache struct {
	mu    sync.Mutex
	max   int // the byte budget, cacheBytes outside tests
	bytes int // bytes of cached bodies, at most max
	m     map[string]*response
	order []string // insertion order for oldest-first eviction
}

func newResponseCache(max int) *responseCache {
	return &responseCache{max: max, m: make(map[string]*response)}
}

func (c *responseCache) get(key string) (*response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	return r, ok
}

// put caches r under key unless key is already cached or r's body
// exceeds the whole budget.
func (c *responseCache) put(key string, r *response) {
	n := len(r.body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[key]; dup || n > c.max {
		return
	}
	for c.bytes+n > c.max {
		old := c.order[0]
		c.order = c.order[1:]
		c.bytes -= len(c.m[old].body)
		delete(c.m, old)
	}
	c.m[key] = r
	c.order = append(c.order, key)
	c.bytes += n
}

// size reports how many responses the cache holds and their body bytes.
func (c *responseCache) size() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.bytes
}
