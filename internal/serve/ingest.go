package serve

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// decodeIngest decodes a POST /append or POST /data body. A body in the
// canonical encoding (see ingestRequest) is scanned directly; any other
// body is decoded by decodeJSON, so it gets encoding/json's struct or
// error. Both paths give the same struct for every body the scan takes.
func decodeIngest(body []byte) (ingestRequest, error) {
	if req, ok := scanIngest(body); ok {
		return req, nil
	}
	var req ingestRequest
	err := decodeJSON(body, &req)
	return req, err
}

// scanIngest decodes body if it is in the canonical encoding, and
// reports false otherwise.
func scanIngest(b []byte) (req ingestRequest, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return req, skipSpace(b, i+1) == len(b)
	}
	var seen [3]bool // path, values, data
	for {
		key, j, ok := scanString(b, i)
		if !ok {
			return req, false
		}
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		var field int
		switch string(key) {
		case "path":
			var s []byte
			s, i, ok = scanString(b, i)
			req.Path = string(s)
		case "values":
			field = 1
			req.Values, i, ok = scanValues(b, i)
		case "data":
			field = 2
			var s []byte
			s, i, ok = scanString(b, i)
			req.Data = string(s)
		default:
			return req, false
		}
		if !ok || seen[field] {
			return req, false
		}
		seen[field] = true
		i = skipSpace(b, i)
		if i == len(b) {
			return req, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return req, skipSpace(b, i+1) == len(b)
		default:
			return req, false
		}
	}
}

// scanString returns the contents of the string starting at b[i] and
// the index past its closing quote; ok is false unless the string has
// no escape, no control byte and is valid UTF-8.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	ascii := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			s = b[i+1 : j]
			return s, j + 1, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, j, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, len(b), false
}

// scanValues parses the flat array of JSON numbers starting at b[i],
// each with strconv.ParseFloat as encoding/json does, and returns the
// index past its closing bracket.
func scanValues(b []byte, i int) (vals []float64, next int, ok bool) {
	if i == len(b) || b[i] != '[' {
		return nil, i, false
	}
	end := bytes.IndexByte(b[i:], ']')
	if end < 0 {
		return nil, i, false
	}
	end += i
	i = skipSpace(b, i+1)
	if i == end {
		return []float64{}, end + 1, true
	}
	vals = make([]float64, 0, bytes.Count(b[i:end], []byte{','})+1)
	for {
		j := scanNumber(b, i)
		if j == i {
			return nil, i, false
		}
		// string(b[i:j]) does not escape, so a number of up to 32 bytes
		// (every number json.Marshal writes) is parsed without an
		// allocation.
		f, err := strconv.ParseFloat(string(b[i:j]), 64)
		if err != nil {
			return nil, i, false
		}
		vals = append(vals, f)
		i = skipSpace(b, j)
		if i == end {
			return vals, end + 1, true
		}
		if b[i] != ',' {
			return nil, i, false
		}
		i = skipSpace(b, i+1)
	}
}

// scanNumber returns the index past the JSON number starting at b[i],
// or i if none starts there:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(b []byte, i int) int {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = skipDigits(b, j+1)
	default:
		return i
	}
	if j < len(b) && b[j] == '.' {
		k := skipDigits(b, j+1)
		if k == j+1 {
			return i
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := skipDigits(b, j)
		if k == j {
			return i
		}
		j = k
	}
	return j
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}
