package service

import (
	"fmt"
	"testing"
)

// ck is a cache key: a canonical request named by its method field.
func ck(name string) canonicalRequest { return canonicalRequest{Method: name} }

func TestCacheHitMissAndLRUOrder(t *testing.T) {
	c := NewCache(1<<20, 3)
	if _, ok := c.Get(ck("a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(ck("a"), entry{doc: []byte("aa")})
	c.Put(ck("b"), entry{doc: []byte("bb")})
	c.Put(ck("c"), entry{doc: []byte("cc")})
	if v, ok := c.Get(ck("a")); !ok || string(v.doc) != "aa" {
		t.Fatalf("Get(a) = %q, %v", v.doc, ok)
	}
	// "a" is now most recent; inserting "d" must evict "b" (the LRU).
	c.Put(ck("d"), entry{doc: []byte("dd")})
	if _, ok := c.Get(ck("b")); ok {
		t.Error("LRU entry b survived eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(ck(k)); !ok {
			t.Errorf("entry %s evicted, want kept", k)
		}
	}
	if c.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", c.Evictions())
	}
}

func TestCacheByteBound(t *testing.T) {
	c := NewCache(10, 100)
	c.Put(ck("a"), entry{doc: []byte("0123")})
	c.Put(ck("b"), entry{doc: []byte("4567")})
	if c.Bytes() != 8 || c.Len() != 2 {
		t.Fatalf("bytes=%d len=%d, want 8/2", c.Bytes(), c.Len())
	}
	c.Put(ck("c"), entry{doc: []byte("89ab")}) // 12 bytes total: evict until <= 10
	if c.Bytes() > 10 {
		t.Errorf("bytes=%d exceeds bound 10", c.Bytes())
	}
	if _, ok := c.Get(ck("a")); ok {
		t.Error("oldest entry survived byte-bound eviction")
	}
}

func TestCacheUpdateInPlace(t *testing.T) {
	c := NewCache(100, 10)
	c.Put(ck("k"), entry{doc: []byte("small")})
	c.Put(ck("k"), entry{doc: []byte("a rather larger value")})
	if c.Len() != 1 {
		t.Fatalf("len=%d after update, want 1", c.Len())
	}
	if got := c.Bytes(); got != int64(len("a rather larger value")) {
		t.Errorf("bytes=%d not retallied on update", got)
	}
	if v, _ := c.Get(ck("k")); string(v.doc) != "a rather larger value" {
		t.Errorf("Get(k) = %q", v.doc)
	}
}

func TestCacheOversizedValueNotCached(t *testing.T) {
	c := NewCache(4, 10)
	c.Put(ck("big"), entry{doc: []byte("way too large")})
	if c.Len() != 0 {
		t.Error("oversized value was cached")
	}
	// And it must not have wiped existing entries either.
	c.Put(ck("ok"), entry{doc: []byte("ok")})
	c.Put(ck("big"), entry{doc: []byte("way too large")})
	if _, ok := c.Get(ck("ok")); !ok {
		t.Error("oversized Put evicted an unrelated entry")
	}
}

func TestCacheEntryBoundChurn(t *testing.T) {
	c := NewCache(1<<20, 4)
	for i := 0; i < 100; i++ {
		c.Put(ck(fmt.Sprintf("k%d", i)), entry{doc: []byte{byte(i)}})
	}
	if c.Len() != 4 {
		t.Fatalf("len=%d, want 4", c.Len())
	}
	for i := 96; i < 100; i++ {
		if _, ok := c.Get(ck(fmt.Sprintf("k%d", i))); !ok {
			t.Errorf("recent entry k%d missing", i)
		}
	}
}
