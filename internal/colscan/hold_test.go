package colscan

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
)

// numericData is n fixed-width numeric records.
func numericData(n int, salt int) []byte {
	var b strings.Builder
	for i := range n {
		fmt.Fprintf(&b, "%d.%03d\n", i+salt, (i*7+salt)%1000)
	}
	return []byte(b.String())
}

// noGC keeps the garbage collector from reclaiming parked storage while
// a test counts on finding it.
func noGC(t *testing.T) {
	t.Helper()
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// leStore is a sidecar store that serves each split from its text
// through the little-endian column images, so a miss builds its block
// with Spares.NewBlockLE on the cache's parked storage.
type leStore struct{}

func (leStore) LoadColumnsVia(r ReaderAt, key BlockKey, sp *Spares) (*Block, bool, error) {
	mf := r.(*memFile)
	text, err := Decode(mf, key.Path, int64(len(mf.data)), key.Offset, key.Length, key.Format)
	if err != nil {
		return nil, false, err
	}
	starts, vals, keys := leImages(text)
	blk, err := sp.NewBlockLE(key.Format, 0, text.lastEnd, starts, vals, keys, text.dict)
	return blk, err == nil, err
}

// holdCache is a cache of maxBytes whose misses go through leStore.
func holdCache(maxBytes int64) *Cache {
	c := NewCache(maxBytes)
	c.SetStore(leStore{})
	return c
}

// pinned is the bytes b's column arrays keep alive.
func pinned(b *Block) int64 {
	return int64(cap(b.offs))*4 + int64(cap(b.vals))*8 + int64(cap(b.keys))*4
}

// loadKey loads path through c as one split covering all of data.
func loadKey(t *testing.T, c *Cache, path string, data []byte) *Block {
	t.Helper()
	key := BlockKey{Path: path, Version: 1, Length: int64(len(data)), Format: FormatNumeric}
	blk, err := c.Load(&memFile{data: data}, int64(len(data)), key)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

// blockBytes is the size of data's block loaded through a fresh cache.
func blockBytes(t *testing.T, data []byte) int64 {
	t.Helper()
	blk := loadKey(t, holdCache(0), "/size", data)
	defer blk.Release()
	return blk.SizeBytes()
}

// blockCopy is a deep copy of b's records, for comparing after the cache
// has had its chance to reuse storage.
func blockCopy(b *Block) Block {
	c := *b
	c.offs = append([]uint32(nil), b.offs...)
	c.vals = append([]float64(nil), b.vals...)
	c.keys = append([]uint32(nil), b.keys...)
	c.own = nil
	return c
}

// sameColumns reports whether a and b hold the same records, values
// compared bit for bit.
func sameColumns(a, b *Block) bool {
	if !reflect.DeepEqual(a.offs, b.offs) || !reflect.DeepEqual(a.keys, b.keys) ||
		a.base != b.base || a.lastEnd != b.lastEnd || len(a.vals) != len(b.vals) {
		return false
	}
	for i := range a.vals {
		if math.Float64bits(a.vals[i]) != math.Float64bits(b.vals[i]) {
			return false
		}
	}
	return true
}

// TestJoinedLoadCountsAsHit: a Load that joins a decode in flight
// decoded nothing, so it is a hit — Hits + Misses counts every load.
func TestJoinedLoadCountsAsHit(t *testing.T) {
	data := []byte("1\n2\n3\n")
	g := &gatedFile{data: data, entered: make(chan struct{}), release: make(chan struct{})}
	c := NewCache(0)
	key := BlockKey{Path: "/f", Version: 1, Length: int64(len(data)), Format: FormatNumeric}
	done := make(chan *Block, 2)
	for range 2 {
		go func() {
			blk, err := c.Load(g, int64(len(data)), key)
			if err != nil {
				t.Error(err)
			}
			done <- blk
		}()
	}
	<-g.entered
	for c.Stats().Hits+c.Stats().Misses < 2 { // the second Load has joined
		runtime.Gosched()
	}
	close(g.release)
	a, b := <-done, <-done
	if a != b {
		t.Fatal("the joined Load got a block of its own")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits %d, misses %d; want 1 and 1", st.Hits, st.Misses)
	}
	a.Release()
	b.Release()
}

// TestHeldBlockSurvivesRecycling: a held block is never evicted. Over
// a budget of one block, later loads evict and recycle one another, but
// the held block stays in the cache — a Peek finds the same block, its
// columns bit for bit — and is counted as held, outside the budget.
// After its last release it is trimmed like any other block and its
// storage recycled.
func TestHeldBlockSurvivesRecycling(t *testing.T) {
	noGC(t)
	data := numericData(500, 0)
	heldKey := BlockKey{Path: "/h", Version: 1, Length: int64(len(data)), Format: FormatNumeric}
	size := blockBytes(t, data)
	c := holdCache(size) // every block is the same size: one fits the budget
	held := loadKey(t, c, "/h", data)
	want := blockCopy(held)
	const K = 8
	for i := range K {
		loadKey(t, c, fmt.Sprintf("/k%d", i), numericData(500, i+1)).Release() // evicts the block before it
		if st := c.Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("load %d: %d unheld bytes over a budget of %d", i, st.Bytes, st.MaxBytes)
		}
	}
	peeked, ok := c.Peek(heldKey)
	if !ok || peeked != held {
		t.Fatal("a held block was evicted")
	}
	peeked.Release()
	if !sameColumns(held, &want) {
		t.Fatal("a held block changed under recycling loads")
	}
	st := c.Stats()
	if st.Held != 1 || st.HeldBytes != size || st.Recycled == 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("stats %+v: want 1 held block of %d bytes outside the budget, and recycled loads", st, size)
	}
	held.Release()
	if st := c.Stats(); st.Held != 0 || st.HeldBytes != 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("after the release: %+v; want nothing held, within budget", st)
	}
	// The released block is now the most recent: the next released load
	// trims it, and the miss after that builds on its storage.
	loadKey(t, c, "/next", numericData(500, K+1)).Release()
	if held.offs != nil || held.vals != nil {
		t.Fatal("a recycled block still reads as its old records")
	}
	if _, ok := c.Peek(heldKey); ok {
		t.Fatal("the released block outlived the budget")
	}
	before := c.Stats().Recycled
	loadKey(t, c, "/last", numericData(500, K+2)).Release()
	if c.Stats().Recycled != before+1 {
		t.Fatal("the miss after the trim did not reuse parked storage")
	}
}

// TestConcurrentLoadsShareAHeldBlock: while a block is held, every Load
// of its key returns that block and no second one is decoded, however
// small the budget and however many goroutines load and release around
// it. Once the holds are gone the cache trims back to its budget.
func TestConcurrentLoadsShareAHeldBlock(t *testing.T) {
	const K, G, rounds = 6, 4, 50
	datas := make([][]byte, K)
	for k := range datas {
		datas[k] = numericData(200, k)
	}
	c := holdCache(blockBytes(t, datas[0])) // a budget of one block
	held := make([]*Block, K)
	for k, data := range datas {
		held[k] = loadKey(t, c, fmt.Sprintf("/s%d", k), data)
	}
	var wg sync.WaitGroup
	for range G {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				for k, data := range datas {
					key := BlockKey{Path: fmt.Sprintf("/s%d", k), Version: 1, Length: int64(len(data)), Format: FormatNumeric}
					blk, err := c.Load(&memFile{data: data}, int64(len(data)), key)
					if err != nil {
						t.Error(err)
						return
					}
					same := blk == held[k]
					blk.Release()
					if !same {
						t.Errorf("key %d: a Load built a second block while one was held", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Misses != K {
		t.Fatalf("%d misses for %d held keys", st.Misses, K)
	}
	for _, b := range held {
		b.Release()
	}
	if st := c.Stats(); st.Bytes > st.MaxBytes || st.Held != 0 || st.HeldBytes != 0 {
		t.Fatalf("after the releases: %+v; want nothing held, within budget", st)
	}
}

// TestReleasedStorageIsReused: once the last hold on a block goes and
// the cache trims it, the next miss of the same shape decodes into its
// arrays.
func TestReleasedStorageIsReused(t *testing.T) {
	noGC(t)
	data := numericData(300, 0)
	c := holdCache(1)
	old := loadKey(t, c, "/a", data)
	offs, vals := &old.offs[0], &old.vals[0]
	b := loadKey(t, c, "/b", data) // /a is held: nothing is parked
	if &b.offs[0] == offs {
		t.Fatal("a held block's storage was reused")
	}
	old.Release() // the last hold: /a's storage is parked
	fresh := loadKey(t, c, "/c", data)
	if &fresh.offs[0] != offs || &fresh.vals[0] != vals {
		t.Fatal("the load after the release did not reuse the released block's arrays")
	}
	if got := c.Stats().Recycled; got != 1 {
		t.Fatalf("Recycled = %d, want 1", got)
	}
	b.Release()
	fresh.Release()
}

// TestInvalidateDefersRecycling: InvalidatePath on a held block drops it
// from the cache but leaves it intact until its release.
func TestInvalidateDefersRecycling(t *testing.T) {
	noGC(t)
	data := numericData(200, 3)
	c := holdCache(0)
	blk := loadKey(t, c, "/inv", data)
	want := blockCopy(blk)
	c.InvalidatePath("/inv")
	if st := c.Stats(); st.Blocks != 0 || st.Held != 1 || st.HeldBytes != blk.SizeBytes() {
		t.Fatalf("after invalidation: %+v", st)
	}
	loadKey(t, c, "/other", data).Release() // a miss while the block is held
	if !sameColumns(blk, &want) {
		t.Fatal("an invalidated block changed while held")
	}
	blk.Release()
	if st := c.Stats(); st.Held != 0 || st.HeldBytes != 0 || blk.vals != nil {
		t.Fatalf("the release did not recycle the invalidated block: %+v", st)
	}
}

// TestDoubleReleasePanics: a hold given back twice is a bug in the
// holder, and fails loudly rather than recycling a block in use.
func TestDoubleReleasePanics(t *testing.T) {
	c := NewCache(0)
	blk := loadKey(t, c, "/d", []byte("1\n2\n"))
	blk.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a second Release did not panic")
		}
	}()
	blk.Release()
}

// TestReleaseOfUncachedBlockIsNoOp: blocks no cache handed out hold
// nothing.
func TestReleaseOfUncachedBlockIsNoOp(t *testing.T) {
	data := []byte("1\n2\n")
	blk, err := Decode(&memFile{data: data}, "/u", int64(len(data)), 0, int64(len(data)), FormatNumeric)
	if err != nil {
		t.Fatal(err)
	}
	blk.Release()
	blk.Release()
	var none *Block
	none.Release()
	if blk.NumRecords() != 2 {
		t.Fatal("Release touched a block no cache handed out")
	}
}

// dirtySpares parks two 0xFF-filled uint32 arrays and one float64 array
// of n entries: storage a decode must overwrite, not trust to be zero.
func dirtySpares(n int) *Spares {
	sp := &Spares{}
	for range 2 {
		u := make([]uint32, n)
		for i := range u {
			u[i] = math.MaxUint32
		}
		sp.u32.Put(u)
	}
	f := make([]float64, n)
	for i := range f {
		f[i] = math.Float64frombits(math.MaxUint64)
	}
	sp.f64.Put(f)
	return sp
}

// leImages renders b's columns as NewBlockLE's wire images, with starts
// taken from splitOff 0.
func leImages(b *Block) (starts, vals, keys []byte) {
	for i := range b.NumRecords() {
		starts = binary.LittleEndian.AppendUint32(starts, uint32(b.Start(i)))
		vals = binary.LittleEndian.AppendUint64(vals, math.Float64bits(b.vals[i]))
	}
	for _, k := range b.keys {
		keys = binary.LittleEndian.AppendUint32(keys, k)
	}
	return starts, vals, keys
}

// checkDirtyDecode builds data's block from its sidecar images into
// dirty parked storage and fails unless it equals the block built on
// fresh arrays. It reports whether the build took the parked storage.
func checkDirtyDecode(t *testing.T, data []byte, f Format) bool {
	t.Helper()
	mf := &memFile{data: data}
	text, err := Decode(mf, "/z", int64(len(data)), 0, int64(len(data)), f)
	if err != nil {
		return false
	}
	starts, vals, keys := leImages(text)
	fresh, err := (*Spares)(nil).NewBlockLE(f, 0, text.lastEnd, starts, vals, keys, text.dict)
	if err != nil {
		t.Fatalf("NewBlockLE of a decoded block: %v", err)
	}
	sp := dirtySpares(text.NumRecords())
	dirty, err := sp.NewBlockLE(f, 0, text.lastEnd, starts, vals, keys, text.dict)
	if err != nil || !reflect.DeepEqual(dirty, fresh) {
		t.Fatalf("NewBlockLE of %q into dirty storage: %v\n got %+v\nwant %+v", data, err, dirty, fresh)
	}
	return sp.reused.Load() == 1
}

// TestDirtyStorageDecodesLikeFresh: a block built from sidecar images on
// recycled arrays — filled with 0xFF here — equals one built on fresh
// zeroed arrays.
func TestDirtyStorageDecodesLikeFresh(t *testing.T) {
	noGC(t)
	for _, c := range []struct {
		data string
		f    Format
	}{
		{"1\n2.5\n-3e2\n", FormatNumeric},
		{"7", FormatNumeric},
		{"a\t1\nbb\t2\na\t3.5\n", FormatKV},
	} {
		if !checkDirtyDecode(t, []byte(c.data), c.f) {
			t.Fatalf("%q: the build did not take the parked storage", c.data)
		}
	}
}

// TestAccountedBytesCoverPinnedStorage: a small block never takes a
// parked array far larger than itself, and the cache's byte count
// covers every array a block keeps alive, parked storage included.
func TestAccountedBytesCoverPinnedStorage(t *testing.T) {
	noGC(t)
	c := holdCache(0)
	c.spares.u32.Put(make([]uint32, 1<<16))
	c.spares.f64.Put(make([]float64, 1<<16))
	data := numericData(100, 0)
	small := loadKey(t, c, "/small", data)
	if n := small.NumRecords(); cap(small.offs) > 2*n || cap(small.vals) > 2*n {
		t.Fatalf("a %d-record block took arrays of %d and %d entries", n, cap(small.offs), cap(small.vals))
	}
	c.spares.u32.Put(make([]uint32, 190))
	c.spares.f64.Put(make([]float64, 190))
	near := loadKey(t, c, "/near", data)
	if cap(near.offs) != 190 || cap(near.vals) != 190 {
		t.Fatal("a 100-record block did not take the 190-entry parked arrays")
	}
	want := pinned(small) + pinned(near)
	if st := c.Stats(); st.HeldBytes < want {
		t.Fatalf("cache accounts %d held bytes, its blocks pin %d", st.HeldBytes, want)
	}
	small.Release()
	near.Release()
	if st := c.Stats(); st.Bytes < want {
		t.Fatalf("cache accounts %d bytes once released, its blocks pin %d", st.Bytes, want)
	}
}

// TestSelectionMemoCountsInBudget: a memoized selection is part of its
// block's footprint — inside HeldBytes while the block is held, inside
// the budget once it is released, so blocks that fit the budget bare
// no longer all fit with their memos.
func TestSelectionMemoCountsInBudget(t *testing.T) {
	const K = 4
	datas := make([][]byte, K)
	for k := range datas {
		datas[k] = numericData(300, k)
	}
	c := holdCache(K * blockBytes(t, datas[0]))
	held := make([]*Block, K)
	var want int64
	for k, data := range datas {
		held[k] = loadKey(t, c, fmt.Sprintf("/m%d", k), data)
		sel := held[k].Selection("v > 0", func() []int32 {
			all := make([]int32, held[k].NumRecords(), 2*held[k].NumRecords())
			for i := range all {
				all[i] = int32(i)
			}
			return all
		})
		// The memo is copied to its exact length, not the build's capacity.
		if cap(sel) != held[k].NumRecords() {
			t.Fatalf("memo capacity %d for %d records", cap(sel), held[k].NumRecords())
		}
		want += held[k].SizeBytes() + int64(len("v > 0")) + 4*int64(len(sel))
	}
	if st := c.Stats(); st.HeldBytes != want || st.Selections != K {
		t.Fatalf("holding %d memoized blocks: %+v; want HeldBytes %d, %d selections", K, st, want, K)
	}
	for _, b := range held {
		b.Release()
	}
	if st := c.Stats(); st.Bytes > st.MaxBytes || st.Held != 0 || st.HeldBytes != 0 || st.Blocks == K {
		t.Fatalf("after the releases: %+v; want nothing held, within budget, a memoized block trimmed", st)
	}
}
