package colscan

import (
	"errors"
	"sync"
	"testing"
)

// gatedFile is a ReaderAt whose first ReadAt parks until released —
// the harness for racing a rewrite against an in-flight decode.
type gatedFile struct {
	data    []byte
	entered chan struct{} // closed when the first ReadAt begins
	release chan struct{} // ReadAt blocks until this closes
	once    sync.Once
}

func (g *gatedFile) ReadAt(path string, off int64, p []byte) (int, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return copy(p, g.data[off:]), nil
}

// TestInvalidateDropsInFlightLoad pins the rewrite/decode race fix: a
// decode that is already in flight when InvalidatePath lands must still
// serve its waiters, but may NOT re-populate the cache under the dead
// (path, version) key — a later Peek or Load of that key must miss.
func TestInvalidateDropsInFlightLoad(t *testing.T) {
	data := []byte("1\n2\n3\n")
	g := &gatedFile{data: data, entered: make(chan struct{}), release: make(chan struct{})}
	c := NewCache(0)
	key := BlockKey{Path: "/f", Version: 1, Offset: 0, Length: int64(len(data)), Format: FormatNumeric}

	type result struct {
		blk *Block
		err error
	}
	done := make(chan result)
	go func() {
		blk, err := c.Load(g, int64(len(data)), key)
		done <- result{blk, err}
	}()
	<-g.entered
	c.InvalidatePath("/f") // the rewrite lands mid-decode
	close(g.release)

	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight load failed: %v", res.err)
	}
	if res.blk.NumRecords() != 3 {
		t.Fatalf("waiter got %d records, want 3", res.blk.NumRecords())
	}
	if _, ok := c.Peek(key); ok {
		t.Fatal("in-flight load re-populated the cache under an invalidated key")
	}
	st := c.Stats()
	if st.Blocks != 0 || st.Bytes != 0 {
		t.Fatalf("cache retains %d blocks / %d bytes after invalidation", st.Blocks, st.Bytes)
	}
	// A fresh load of the key (the rewritten file's new version would
	// normally change the key; same-key reload must also work).
	g2 := &memFile{data: data}
	blk, err := c.Load(g2, int64(len(data)), key)
	if err != nil || blk.NumRecords() != 3 {
		t.Fatalf("reload after invalidation: %v", err)
	}
	if got := c.Stats().Blocks; got != 1 {
		t.Fatalf("reload cached %d blocks, want 1", got)
	}
}

// fakeStore scripts the ColumnStore the cache consults on misses.
type fakeStore struct {
	blk *Block
	ok  bool
	err error
}

func (s *fakeStore) LoadColumnsVia(_ ReaderAt, key BlockKey, _ *Spares) (*Block, bool, error) {
	return s.blk, s.ok, s.err
}

func TestCacheServesFromColumnStore(t *testing.T) {
	data := []byte("1\n2\n3\n")
	blk, err := Decode(&memFile{data: data}, "/f", int64(len(data)), 0, int64(len(data)), FormatNumeric)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	c.SetStore(&fakeStore{blk: blk, ok: true})
	// A reader that always fails proves the text path was never touched.
	got, err := c.Load(&memFile{}, int64(len(data)), BlockKey{Path: "/f", Length: int64(len(data)), Format: FormatNumeric})
	if err != nil || got != blk {
		t.Fatalf("Load did not serve the store's block: %v", err)
	}
	st := c.Stats()
	if st.SidecarReads != 1 || st.SidecarErrors != 0 {
		t.Fatalf("counters = %d reads / %d errors, want 1 / 0", st.SidecarReads, st.SidecarErrors)
	}
}

func TestCacheFallsBackOnStoreError(t *testing.T) {
	boom := errors.New("checksum mismatch")
	data := []byte("4\n5\n")
	c := NewCache(0)
	c.SetStore(&fakeStore{err: boom})
	var hookKey BlockKey
	var hookErr error
	c.OnSidecarError(func(key BlockKey, err error) { hookKey, hookErr = key, err })
	key := BlockKey{Path: "/f", Length: int64(len(data)), Format: FormatNumeric}
	blk, err := c.Load(&memFile{data: data}, int64(len(data)), key)
	if err != nil || blk.NumRecords() != 2 {
		t.Fatalf("fallback text decode failed: %v", err)
	}
	if !errors.Is(hookErr, boom) || hookKey != key {
		t.Fatalf("error hook saw (%v, %v), want the failing key and error", hookKey, hookErr)
	}
	st := c.Stats()
	if st.SidecarErrors != 1 || st.SidecarReads != 0 {
		t.Fatalf("counters = %d reads / %d errors, want 0 / 1", st.SidecarReads, st.SidecarErrors)
	}
}

func TestCacheStoreMissDecodesText(t *testing.T) {
	data := []byte("6\n")
	c := NewCache(0)
	c.SetStore(&fakeStore{}) // clean miss: no sidecar coverage
	blk, err := c.Load(&memFile{data: data}, int64(len(data)), BlockKey{Path: "/f", Length: int64(len(data)), Format: FormatNumeric})
	if err != nil || blk.NumRecords() != 1 {
		t.Fatalf("text decode after store miss failed: %v", err)
	}
	st := c.Stats()
	if st.SidecarReads != 0 || st.SidecarErrors != 0 {
		t.Fatalf("clean miss moved sidecar counters: %+v", st)
	}
}
