// Package colscan is the vectorized scan layer: it decodes a dfs split
// ONCE into columnar batches — record starts, a []float64 value column
// and (for the grouped route) dictionary-interned keys — so the engine
// can route whole columns through the batched reducer entry points
// instead of boxing one float64 per record. It is also the single home
// of record validation: NaN/±Inf values and malformed lines are
// rejected here, wrapping ErrBadRecord, for every caller (the §3.3
// error path surfaces poisoned records instead of letting them corrupt
// an order-statistic dictionary).
//
// The package imports nothing of the repo but internal/pool's spare
// storage: dfs, core, live and sampling all sit above it, and the dfs
// file system satisfies its ReaderAt without an import edge.
package colscan

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Format selects the record shape the decoder parses.
type Format uint8

const (
	// FormatNone means no built-in format describes the records: a
	// custom user parser decodes them, applied by the samplers where
	// they read each line (sampling.Parser). Such records reach the
	// same Cols batches, but never this package's decoder or its cache.
	FormatNone Format = iota
	// FormatNumeric is one float64 per line (workload.DecodeLine).
	FormatNumeric
	// FormatKV is "key\tvalue" per line (ParseKVString).
	FormatKV
)

// ErrBadRecord is the errors.Is-able sentinel wrapped by every decode
// failure: malformed lines and non-finite (NaN/±Inf) values. One
// poisoned record fails the run cleanly instead of corrupting the
// estimate.
var ErrBadRecord = errors.New("bad record")

// maxQuote bounds how much of a malformed record an error message
// quotes: a multi-MB line (a truncated append with no trailing newline)
// must not balloon error files or logs.
const maxQuote = 64

// Quote renders s for an error message, truncating the quoted content
// to a bounded prefix.
func Quote(s string) string {
	if len(s) <= maxQuote {
		return strconv.Quote(s)
	}
	return strconv.Quote(s[:maxQuote]) + fmt.Sprintf("… (%d bytes total)", len(s))
}

func quoteBytes(b []byte) string { return Quote(string(b)) }

// Cols is one decoded batch: parallel key/value columns. Keys is empty
// for FormatNumeric batches. The zero value is ready to use.
type Cols struct {
	Keys []string
	Vals []float64
}

// Len returns the number of records in the batch.
func (c *Cols) Len() int { return len(c.Vals) }

// Reset empties the batch, retaining capacity.
func (c *Cols) Reset() {
	c.Keys = c.Keys[:0]
	c.Vals = c.Vals[:0]
}

// AppendParsedLine parses one record line under f and appends it to c —
// the per-record fallback that shares the columnar decoder's validation
// (same values bit for bit, same ErrBadRecord class). The line is only
// read: a numeric record is parsed where it lies, and of a key/value
// record the key alone is copied out.
func AppendParsedLine(c *Cols, f Format, line []byte) error {
	switch f {
	case FormatNumeric:
		v, err := ParseValue(line)
		if err != nil {
			return err
		}
		c.Vals = append(c.Vals, v)
		return nil
	case FormatKV:
		i := bytes.IndexByte(line, '\t')
		if i < 0 {
			return fmt.Errorf("colscan: no tab separator in record %s: %w", quoteBytes(line), ErrBadRecord)
		}
		v, err := ParseValue(line[i+1:])
		if err != nil {
			return err
		}
		c.Keys = append(c.Keys, string(line[:i]))
		c.Vals = append(c.Vals, v)
		return nil
	default:
		return fmt.Errorf("colscan: no parser for format %d", f)
	}
}

// ParseKVString splits one "key\tvalue" record. The key is everything
// before the first tab, untrimmed (grouped keys are byte-exact); the
// value goes through the shared numeric validation.
func ParseKVString(line string) (string, float64, error) {
	i := strings.IndexByte(line, '\t')
	if i < 0 {
		return "", 0, fmt.Errorf("colscan: no tab separator in record %s: %w", Quote(line), ErrBadRecord)
	}
	v, err := ParseValueString(line[i+1:])
	if err != nil {
		return "", 0, err
	}
	return line[:i], v, nil
}

// ParseValueString is ParseValue over a string (no copy).
func ParseValueString(s string) (float64, error) {
	return parseValue(s)
}

// ParseValue parses one numeric field: surrounding whitespace is
// trimmed (strings.TrimSpace semantics), the number is parsed with
// strconv.ParseFloat semantics, and non-finite results (NaN, ±Inf) are
// rejected. All failures wrap ErrBadRecord.
func ParseValue(b []byte) (float64, error) {
	return parseValue(bstr(b))
}

// bstr views b as a string without copying. The view never escapes a
// parse call and the underlying bytes are immutable for its duration.
func bstr(b []byte) string { return string(b) }

func parseValue(s string) (float64, error) {
	t := trimSpace(s)
	if len(t) == 0 {
		return 0, fmt.Errorf("colscan: empty value in record %s: %w", Quote(s), ErrBadRecord)
	}
	v, ok := fastFloat(t)
	if !ok {
		var err error
		v, err = strconv.ParseFloat(t, 64)
		if err != nil {
			return 0, fmt.Errorf("colscan: bad value %s: %w", Quote(t), ErrBadRecord)
		}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("colscan: non-finite value %s: %w", Quote(t), ErrBadRecord)
	}
	return v, nil
}

// asciiSpace marks the ASCII characters unicode.IsSpace accepts — the
// same table strings.TrimSpace fast-paths on.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// trimSpace trims leading/trailing whitespace with strings.TrimSpace
// semantics, without allocating for pure-ASCII input. If a non-ASCII
// byte survives at either boundary, the stdlib does the (rare) Unicode
// trim so the result is byte-identical.
func trimSpace(s string) string {
	lo, hi := 0, len(s)
	for lo < hi && asciiSpace[s[lo]] {
		lo++
	}
	for hi > lo && asciiSpace[s[hi-1]] {
		hi--
	}
	s = s[lo:hi]
	if len(s) > 0 && (s[0] >= 0x80 || s[len(s)-1] >= 0x80) {
		return strings.TrimSpace(s)
	}
	return s
}

// pow10 holds the exactly-representable powers of ten (10^0..10^22).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// fastFloat parses t on the Clinger exact path: when the decimal
// mantissa fits in 53 bits and the decimal exponent is within ±22, both
// operands of a single float multiply/divide are exactly representable,
// so the IEEE-correctly-rounded result equals the correctly-rounded
// decimal — bit-identical to strconv.ParseFloat, which takes the same
// shortcut. Anything outside that envelope (long mantissas, hex floats,
// underscores, huge exponents) reports !ok and falls back to strconv.
func fastFloat(t string) (float64, bool) {
	i := 0
	neg := false
	switch t[0] {
	case '+':
		i = 1
	case '-':
		neg = true
		i = 1
	}
	var mant uint64
	digits := 0
	frac := 0
	sawDigit := false
	sawDot := false
	for ; i < len(t); i++ {
		c := t[i]
		if c >= '0' && c <= '9' {
			sawDigit = true
			if digits >= 19 {
				return 0, false // mantissa would overflow uint64
			}
			mant = mant*10 + uint64(c-'0')
			digits++
			if sawDot {
				frac++
			}
			continue
		}
		if c == '.' && !sawDot {
			sawDot = true
			continue
		}
		break
	}
	if !sawDigit {
		return 0, false
	}
	exp := 0
	if i < len(t) && (t[i] == 'e' || t[i] == 'E') {
		i++
		esign := 1
		if i < len(t) && (t[i] == '+' || t[i] == '-') {
			if t[i] == '-' {
				esign = -1
			}
			i++
		}
		if i >= len(t) {
			return 0, false
		}
		for ; i < len(t); i++ {
			c := t[i]
			if c < '0' || c > '9' {
				return 0, false
			}
			if exp < 10000 {
				exp = exp*10 + int(c-'0')
			}
		}
		exp *= esign
	}
	if i != len(t) {
		return 0, false // trailing bytes: strconv decides (and errors)
	}
	e10 := exp - frac
	if mant >= 1<<53 || e10 < -22 || e10 > 22 {
		return 0, false
	}
	v := float64(mant)
	switch {
	case e10 > 0:
		v *= pow10[e10]
	case e10 < 0:
		v /= pow10[-e10]
	}
	if neg {
		v = -v
	}
	return v, true
}
