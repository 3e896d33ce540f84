package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// checker is the output-correctness gate. It holds the SHA-256 digests
// pinned in bench/testdata/expected.txt and counts every checked
// operation; a wrong output is a failed operation. With -update it pins
// what it observes instead, and fails only when one key is seen with
// two different digests (a non-deterministic output).
type checker struct {
	mu        sync.Mutex
	want      map[string]string
	update    bool
	pinned    map[string]bool // keys -update has pinned in this invocation
	attempted int
	failed    int
	reported  int
}

// maxReported caps the mismatch messages printed per run.
const maxReported = 5

func loadChecker(path string, update bool) (*checker, error) {
	c := &checker{want: map[string]string{}, update: update, pinned: map[string]bool{}}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) && update {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("expected digests: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, digest, ok := strings.Cut(line, " ")
		if !ok || len(digest) != 64 {
			return nil, fmt.Errorf("%s:%d: want \"<key> <sha256>\"", path, n)
		}
		c.want[key] = digest
	}
	return c, sc.Err()
}

// save writes the pinned digests back, sorted by key.
func (c *checker) save(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.want))
	for k := range c.want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# SHA-256 of the outputs the benchmark checks; regenerate with -update.\n")
	b.WriteString("# cold/* digests hash the body with the request's machine name replaced by NAME.\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, c.want[k])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// matches reports whether data hashes to the digest pinned for key.
func (c *checker) matches(key string, data []byte) bool {
	got := digest(data)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.update && !c.pinned[key] {
		c.want[key] = got
		c.pinned[key] = true
		return true
	}
	return got == c.want[key]
}

// op counts one checked operation and reports the first few failures.
func (c *checker) op(ok bool, what string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if c.reported < maxReported {
			c.reported++
			fmt.Fprintf(os.Stderr, "bench: wrong output: %s\n", what)
		}
	}
	return ok
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// reset zeroes the operation counts between workloads.
func (c *checker) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted, c.failed, c.reported = 0, 0, 0
}
