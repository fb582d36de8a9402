package colscan

// Fixture for the blockhold analyzer: a miniature of the scan cache's
// blocks, the calls that take a hold on one, and the holders and
// functions that give holds back — rightly and wrongly.

type Block struct {
	vals []float64
	keys []uint32
}

func (b *Block) Release()          {}
func (b *Block) Values() []float64 { return b.vals }
func (b *Block) KeyIDs() []uint32  { return b.keys }

type Cache struct{}

func (c *Cache) Load(key string) (*Block, error) { return &Block{}, nil }
func (c *Cache) Peek(key string) (*Block, bool)  { return &Block{}, true }

// pool stores blocks in fields: its Release and Close give them back.
type pool struct {
	blocks []*Block
	cur    *Block
}

func (p *pool) Release() {
	for _, b := range p.blocks {
		b.Release()
	}
	p.cur.Release()
}

func (p *pool) Close() { p.Release() }

func (p *pool) add(c *Cache) {
	b, _ := c.Load("k")
	p.blocks = append(p.blocks, b)
}

// drop gives back a hold its type stores, outside Release and Close.
func (p *pool) drop(i int) {
	p.blocks[i].Release() // want `did not take`
}

// adoptThenRelease stores a hold in a field and gives it back anyway.
func (p *pool) adoptThenRelease(c *Cache) {
	b, _ := c.Peek("k")
	p.cur = b
	b.Release() // want `after it was stored`
}

// notMine releases a block its caller took.
func notMine(b *Block) {
	b.Release() // want `did not take`
}

// sum uses the block, then gives it back: fine.
func sum(c *Cache) float64 {
	b, err := c.Load("k")
	if err != nil {
		return 0
	}
	s := 0.0
	for _, v := range b.Values() {
		s += v
	}
	b.Release()
	return s
}

// columnAfter reads a column slice taken from the block after its release.
func columnAfter(c *Cache) float64 {
	b, _ := c.Load("k")
	vals := b.Values()
	ids := b.KeyIDs()[1:]
	b.Release()
	_ = ids[0]     // want `ids used after`
	return vals[0] // want `vals used after`
}

// blockAfter reads the block itself after its release.
func blockAfter(c *Cache) int {
	b, _ := c.Peek("k")
	b.Release()
	return len(b.Values()) // want `b used after`
}

// deferred gives the hold back when the function returns: fine.
func deferred(c *Cache) float64 {
	b, _ := c.Load("k")
	defer b.Release()
	return b.Values()[0]
}

// deferredAll releases a local slice of holds at exit: fine.
func deferredAll(c *Cache, keys []string) int {
	var blks []*Block
	defer func() {
		for _, b := range blks {
			b.Release()
		}
	}()
	for _, k := range keys {
		b, ok := c.Peek(k)
		if !ok {
			continue
		}
		if len(b.Values()) == 0 {
			b.Release()
			continue
		}
		blks = append(blks, b)
	}
	return len(blks)
}

// rebind releases one block and takes another into the same variable.
func rebind(c *Cache) float64 {
	b, _ := c.Load("a")
	b.Release()
	b, _ = c.Load("b")
	v := b.Values()[0]
	b.Release()
	return v
}

// otherBranch releases in one branch and reads in the other: fine.
func otherBranch(c *Cache, drop bool) float64 {
	b, _ := c.Load("a")
	if drop {
		b.Release()
		return 0
	}
	v := b.Values()[0]
	b.Release()
	return v
}

// backEdge releases the block a variable declared outside the loop
// holds, and the next iteration reads it before loading another.
func backEdge(c *Cache, keys []string) float64 {
	var b *Block
	s := 0.0
	for i, k := range keys {
		if i > 0 {
			s += b.Values()[0] // want `b used after`
		}
		b, _ = c.Load(k)
		b.Release()
	}
	return s
}

// backEdgeContinue skips to the next iteration after the release, where
// a column slice taken before the loop is read again.
func backEdgeContinue(c *Cache, keys []string) float64 {
	b, _ := c.Load("a")
	vals := b.Values()
	s := 0.0
	for _, k := range keys {
		s += vals[0] // want `vals used after`
		if k == "" {
			b.Release()
			continue
		}
	}
	return s
}

// perIteration takes and releases a fresh hold each iteration: fine.
func perIteration(c *Cache, keys []string) float64 {
	s := 0.0
	for _, k := range keys {
		b, _ := c.Load(k)
		s += b.Values()[0]
		b.Release()
	}
	return s
}

// reloadEachIteration rebinds the outer variable before any read: fine.
func reloadEachIteration(c *Cache, keys []string) float64 {
	var b *Block
	s := 0.0
	for _, k := range keys {
		b, _ = c.Load(k)
		s += b.Values()[0]
		b.Release()
	}
	return s
}
