package sampling

import (
	"fmt"
	"math"

	"repro/internal/colscan"
	"repro/internal/dfs"
)

// Parser is a user-supplied record parser — the one decode the columnar
// layer cannot mirror. It is applied wherever a record is read as a line
// (PreMap's positioned reads, the post-map pool fill, and the exact
// fall-back's scan of a split), and everything downstream gets the same
// colscan columns a built-in format decodes to. A func has no cacheable
// identity, so parsed records never enter the shared scan cache.
type Parser struct {
	// Parse decodes one record line into a (key, value) pair.
	Parse func(line string) (key string, value float64, err error)
	// Keyed keeps Parse's keys as the batches' key column (grouped
	// routes); a scalar parser's keys are dropped, as under
	// colscan.FormatNumeric.
	Keyed bool
}

// AppendLine parses one line onto out. The parser's output crosses the
// same validation boundary as built-in decode: a rejected line, and a
// non-finite value returned without an error, both wrap
// colscan.ErrBadRecord.
func (p *Parser) AppendLine(out *colscan.Cols, line string) error {
	key, v, err := p.Parse(line)
	if err != nil {
		return fmt.Errorf("sampling: custom parser: %w: %w", colscan.ErrBadRecord, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("sampling: custom parser: %w: non-finite value %v from record %s", colscan.ErrBadRecord, v, colscan.Quote(line))
	}
	if p.Keyed {
		out.Keys = append(out.Keys, key)
	}
	out.Vals = append(out.Vals, v)
	return nil
}

// ParseSplit scans every record starting in sp through the parser into
// one block — the post-map pool fill (Algorithm 1's load-and-parse) for
// custom-parsed records, pooled by PostMapCols like any decoded block.
func (p *Parser) ParseSplit(v dfs.View, sp dfs.Split) (*colscan.Block, error) {
	rd, err := v.NewLineReader(sp, 0)
	if err != nil {
		return nil, err
	}
	var cols colscan.Cols
	var starts []int64
	var lastEnd int64
	for rd.Next() {
		line := rd.Text()
		if err := p.AppendLine(&cols, line); err != nil {
			return nil, err
		}
		starts = append(starts, rd.RecordOffset())
		lastEnd = rd.RecordOffset() + int64(len(line))
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if !p.Keyed {
		return colscan.NewBlock(colscan.FormatNumeric, starts, lastEnd, cols.Vals, nil, nil)
	}
	keys := make([]uint32, len(cols.Keys))
	var dict []string
	intern := make(map[string]uint32)
	for i, k := range cols.Keys {
		ki, ok := intern[k]
		if !ok {
			ki = uint32(len(dict))
			dict = append(dict, k)
			intern[k] = ki
		}
		keys[i] = ki
	}
	return colscan.NewBlock(colscan.FormatKV, starts, lastEnd, cols.Vals, keys, dict)
}
