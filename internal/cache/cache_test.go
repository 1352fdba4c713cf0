package cache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func TestGetPutRoundTrip(t *testing.T) {
	c := New(Options{})
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("k", []byte("value"))
	got, ok := c.Get("k")
	if !ok || !bytes.Equal(got, []byte("value")) {
		t.Fatalf("Get = %q, %v; want value, true", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 5 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry, 5 bytes", st)
	}
}

// TestGetReturnsPrivateCopies pins the aliasing contract: neither the
// caller's Put slice nor a returned Get slice can mutate the stored bytes.
func TestGetReturnsPrivateCopies(t *testing.T) {
	c := New(Options{})
	src := []byte("original")
	c.Put("k", src)
	src[0] = 'X' // caller scribbles on its slice after Put

	first, _ := c.Get("k")
	first[0] = 'Y' // and on the returned copy

	got, _ := c.Get("k")
	if string(got) != "original" {
		t.Fatalf("stored value was aliased: got %q, want original", got)
	}
}

func TestEntryCapEvictsLRU(t *testing.T) {
	c := New(Options{MaxEntries: 3})
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	c.Get("k0") // refresh k0: k1 is now the LRU
	c.Put("k3", []byte{3})
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 should have been evicted as LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Errorf("stats = %+v, want 1 eviction, 3 entries", st)
	}
}

func TestByteCapEvicts(t *testing.T) {
	c := New(Options{MaxBytes: 100})
	c.Put("a", make([]byte, 60))
	c.Put("b", make([]byte, 60)) // 120 > 100: evicts a
	if _, ok := c.Get("a"); ok {
		t.Error("a should have been evicted by the byte cap")
	}
	if _, ok := c.Get("b"); !ok {
		t.Error("b should be resident")
	}
	if st := c.Stats(); st.Bytes != 60 {
		t.Errorf("bytes = %d, want 60", st.Bytes)
	}
}

// TestOversizedValueStays: a single value above MaxBytes is stored anyway —
// the cache evicts down to one entry but never refuses a Put.
func TestOversizedValueStays(t *testing.T) {
	c := New(Options{MaxBytes: 10})
	c.Put("big", make([]byte, 1000))
	if _, ok := c.Get("big"); !ok {
		t.Fatal("oversized value should be stored alone")
	}
	c.Put("big2", make([]byte, 2000))
	if _, ok := c.Get("big2"); !ok {
		t.Fatal("second oversized value should replace the first")
	}
	if _, ok := c.Get("big"); ok {
		t.Fatal("first oversized value should have been evicted")
	}
}

func TestRePutRefreshesAndReplaces(t *testing.T) {
	c := New(Options{MaxEntries: 2})
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Put("a", []byte("333")) // refresh: b becomes LRU
	c.Put("c", []byte("4"))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted after a's refresh")
	}
	got, _ := c.Get("a")
	if string(got) != "333" {
		t.Errorf("a = %q, want the replaced value 333", got)
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c1 := New(Options{Dir: dir})
	c1.Put("deadbeef", []byte("persisted"))

	// A fresh cache over the same directory — as after a process restart —
	// misses memory, hits disk, and promotes the entry.
	c2 := New(Options{Dir: dir})
	got, ok := c2.Get("deadbeef")
	if !ok || string(got) != "persisted" {
		t.Fatalf("disk read = %q, %v; want persisted, true", got, ok)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit promoted into memory", st)
	}
	// Second read is a pure memory hit.
	if _, ok := c2.Get("deadbeef"); !ok {
		t.Fatal("promoted entry should hit in memory")
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want the second hit served from memory", st)
	}
}

func TestDiskCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c := New(Options{Dir: dir})
	if err := os.WriteFile(filepath.Join(dir, "empty"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("empty"); ok {
		t.Error("an empty persisted file must read as a miss")
	}
	if _, ok := c.Get("absent"); ok {
		t.Error("a missing file must read as a miss")
	}
}

// TestDiskCorruptEntryIsAMiss: a persisted entry truncated, overwritten with
// a partial document or with one byte flipped reads as a miss, its file is
// removed, and the next Put writes it afresh.
func TestDiskCorruptEntryIsAMiss(t *testing.T) {
	const key, val = "deadbeef", `{"value":42}`
	for name, corrupt := range map[string]func([]byte) []byte{
		"truncated":            func(b []byte) []byte { return b[:len(b)-1] },
		"truncated into value": func(b []byte) []byte { return b[:6] },
		"partial document":     func([]byte) []byte { return []byte(`{"valu`) },
		"one byte flipped":     func(b []byte) []byte { b[3] ^= 1; return b },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, key)
			New(Options{Dir: dir}).Put(key, []byte(val))
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}
			c := New(Options{Dir: dir})
			if got, ok := c.Get(key); ok {
				t.Fatalf("corrupt entry served as a hit: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt entry left on disk (stat: %v)", err)
			}
			c.Put(key, []byte(val))
			if got, ok := New(Options{Dir: dir}).Get(key); !ok || string(got) != val {
				t.Errorf("after the rewrite: %q, %v; want %s, true", got, ok, val)
			}
		})
	}
}

// FuzzDiskEntry writes arbitrary bytes as a persisted entry, sealed with
// their SHA-256 or not: Get never panics, hits exactly when the file is a
// non-empty value followed by its SHA-256, and then returns that value.
func FuzzDiskEntry(f *testing.F) {
	f.Add([]byte(`{"value":42}`), true)
	f.Add([]byte(`{"valu`), false)
	f.Add([]byte{}, true)
	f.Add(make([]byte, sha256.Size+1), false)
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			sum := sha256.Sum256(data)
			data = append(data, sum[:]...)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "k"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, hit := New(Options{Dir: dir}).Get("k")
		n := len(data) - sha256.Size
		if valid := n > 0 && sha256.Sum256(data[:n]) == [sha256.Size]byte(data[n:]); hit != valid {
			t.Fatalf("%q: hit %v, want %v", data, hit, valid)
		}
		if hit && !bytes.Equal(got, data[:n]) {
			t.Fatalf("%q: Get returned %q, want the value before the trailer", data, got)
		}
	})
}

func TestMetricsCounters(t *testing.T) {
	c := New(Options{MaxEntries: 2})
	r := metrics.New()
	c.SetMetrics(r)
	c.Get("a") // miss
	c.Put("a", []byte("1"))
	c.Get("a") // hit
	c.Put("b", []byte("2"))
	c.Put("c", []byte("3")) // evicts a
	snap := r.Snapshot()
	got := make(map[string]int64)
	for _, cv := range snap.Counters {
		got[cv.Name] = cv.Value
	}
	want := map[string]int64{
		"cache.results.hits":      1,
		"cache.results.misses":    1,
		"cache.results.evictions": 1,
		"cache.results.disk_hits": 0,
	}
	for name, val := range want {
		if got[name] != val {
			t.Errorf("%s = %d, want %d", name, got[name], val)
		}
	}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Error("nil cache Get should miss")
	}
	c.Put("k", []byte("v")) // must not panic
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats = %+v, want zero", st)
	}
}

// TestConcurrentAccess exercises the lock paths under -race.
func TestConcurrentAccess(t *testing.T) {
	c := New(Options{MaxEntries: 64, MaxBytes: 1 << 14})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%100)
				if val, ok := c.Get(key); ok {
					if string(val) != key {
						t.Errorf("corrupted value for %s: %q", key, val)
						return
					}
				} else {
					c.Put(key, []byte(key))
				}
			}
		}(g)
	}
	wg.Wait()
}
