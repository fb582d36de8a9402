package plan

import (
	"slices"
	"testing"
)

// memoProgram compiles filter as written, without Normalize, so
// spelling variants reach KeepBlock as different source text.
func memoProgram(t *testing.T, filter string) *Program {
	t.Helper()
	p, err := Spec{Path: "/d", Filter: filter}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestKeepBlockMemoMatchesFresh: for numeric, string, "||" and "!"
// filters, the selection memoized on a cached block — as built, and as
// the memo serves it back — equals KeepBlock over an uncached copy.
func TestKeepBlockMemoMatchesFresh(t *testing.T) {
	vals, keys := cycle(3*tile+5, []float64{25, 3, 91, 50, -1, 20, 77}, []string{"g1", "g7", "g3", "g1", "g2"})
	fresh := testBlock(t, vals, keys)
	for _, filter := range []string{
		"v > 20 && v < 90",
		`key == "g3"`,
		`v < 10 || key == "g7"`,
		`!(v > 50) && key != "g1"`,
	} {
		p := memoProgram(t, filter)
		want := slices.Clone(p.KeepBlock(NewScratch(), fresh, nil))
		if len(want) == 0 || len(want) == len(vals) {
			t.Fatalf("%s keeps %d of %d records: not a test of σ", filter, len(want), len(vals))
		}
		blk, c := cachedBlock(t, vals, keys)
		built := p.KeepBlock(NewScratch(), blk, nil)
		memo := p.KeepBlock(NewScratch(), blk, nil)
		if !slices.Equal(built, want) || !slices.Equal(memo, want) {
			t.Errorf("%s: memoized %v, served %v; fresh KeepBlock keeps %v", filter, built, memo, want)
		}
		if st := c.Stats(); st.Selections != 1 || st.SelectionHits != 1 {
			t.Errorf("%s: %d selections built, %d hits; want 1 and 1", filter, st.Selections, st.SelectionHits)
		}
		blk.Release()
	}
}

// TestKeepBlockMemoKeyedByCanonicalFilter: two spellings of one σ share
// the memo a cached block holds, and a different σ never reads it —
// each of two alternating filters rebuilds the one slot and keeps what
// it keeps over an uncached copy.
func TestKeepBlockMemoKeyedByCanonicalFilter(t *testing.T) {
	vals, keys := cycle(2*tile+3, []float64{25, 3, 91, 50, 21, 20}, []string{"g1", "g7", "g3"})
	fresh := testBlock(t, vals, keys)
	blk, c := cachedBlock(t, vals, keys)
	defer blk.Release()
	sc := NewScratch()

	a, b := memoProgram(t, `v>20&&key!="g7"`), memoProgram(t, `(v > 20.0) && (key != "g7")`)
	first := p0(a.KeepBlock(sc, blk, nil))
	if second := b.KeepBlock(sc, blk, nil); p0(second) != first {
		t.Fatalf("a second spelling of one σ did not read the first's memo")
	}
	if st := c.Stats(); st.Selections != 1 || st.SelectionHits != 1 {
		t.Fatalf("two spellings of one σ: %d selections built, %d hits; want 1 and 1", st.Selections, st.SelectionHits)
	}

	other := memoProgram(t, `v > 21 && key != "g7"`)
	for round, p := range []*Program{other, a, other} {
		want := slices.Clone(p.KeepBlock(sc, fresh, nil))
		if got := p.KeepBlock(sc, blk, nil); !slices.Equal(got, want) {
			t.Fatalf("round %d: the memo kept %d records, a fresh KeepBlock %d", round, len(got), len(want))
		}
	}
	if st := c.Stats(); st.Selections != 4 {
		t.Fatalf("alternating two σ built %d selections, want 4 (one slot, rebuilt each switch)", st.Selections)
	}
}

// p0 is the address of a selection's first index: the identity of the
// array behind it.
func p0(sel []int32) *int32 { return &sel[0] }
