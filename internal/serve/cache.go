package serve

import "sync"

// cacheBytes is the response cache's budget: the most bytes its entries
// are charged at once.
const cacheBytes = 16 << 20

// entryOverhead is what an entry is charged beyond its key and body
// bytes: its response struct and its map and order slots. Filled with
// 30,000 entries of 68-byte keys, the cache holds 217–220 bytes of heap
// per entry beyond the bodies, about 152 more than the key.
const entryOverhead = 152

// responseCache is the daemon's one cache: complete 200 responses keyed
// by "op:digest" (see cacheKey), bounded by the bytes its entries are
// charged (see charge). A put evicts the oldest entries until the new
// entry fits; an entry larger than the whole budget is served but never
// cached.
type responseCache struct {
	mu    sync.Mutex
	max   int // the byte budget, cacheBytes outside tests
	bytes int // bytes charged for the cached entries, at most max
	m     map[string]*response
	order []string // insertion order for oldest-first eviction
}

// charge is the bytes an entry counts against the budget.
func charge(key string, r *response) int { return len(key) + len(r.body) + entryOverhead }

func newResponseCache(max int) *responseCache {
	return &responseCache{max: max, m: make(map[string]*response)}
}

func (c *responseCache) get(key string) (*response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[key]
	return r, ok
}

// put caches r under key unless key is already cached or the entry's
// charge exceeds the whole budget.
func (c *responseCache) put(key string, r *response) {
	n := charge(key, r)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[key]; dup || n > c.max {
		return
	}
	for c.bytes+n > c.max {
		old := c.order[0]
		c.order = c.order[1:]
		c.bytes -= charge(old, c.m[old])
		delete(c.m, old)
	}
	c.m[key] = r
	c.order = append(c.order, key)
	c.bytes += n
}

// size reports how many responses the cache holds and the bytes they
// are charged.
func (c *responseCache) size() (entries, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.bytes
}
