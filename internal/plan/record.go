package plan

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// decodeEntry reads one record's JSON as the entry of the job whose
// canonical string is canonical, and reports false when it is not one:
// corrupt, or some other job's.
//
// It has two paths. The record reader takes the one layout append writes
// — {"canonical":"<c>","result":{"seconds":N[,"raw":[N,…]][,"trim_frac":N][,"passes":I]}}
// with nothing after it — compares <c> in place with canonical, and
// converts each number with the strconv call encoding/json makes for it.
// Every other byte sequence goes to json.Unmarshal, which is also the
// reference the reader is tested against (FuzzCacheLogScan): reordered or
// unknown fields, whitespace, escapes, key case, an empty or null raw, a
// number out of range, damage. Both paths read a record the same way, so
// which one ran never shows in the answer.
//
//kcvet:hotpath one call per job a restarted server or a from-cache run reads from disk
func decodeEntry(data []byte, canonical string) (entry, bool) {
	if r, ok := readRecord(data, canonical); ok {
		return entry{Canonical: canonical, Result: r}, true
	}
	var e entry
	if json.Unmarshal(data, &e) != nil || e.Canonical != canonical {
		return entry{}, false
	}
	return e, true
}

// readRecord is decodeEntry's record reader: the result of a record laid
// out exactly as append writes it for canonical, or false for anything it
// does not take. A false is not a verdict on the record, only a hand-over
// to json.Unmarshal.
func readRecord(data []byte, canonical string) (Result, bool) {
	var r Result
	// The canonical is compared as bytes, so it must be one that encoding
	// is the identity on; append would have escaped anything else.
	if !plainJSON(canonical) {
		return r, false
	}
	s := scanner{data}
	if !s.lit(`{"canonical":"`) || !s.lit(canonical) || !s.lit(`","result":{"seconds":`) {
		return r, false
	}
	var ok bool
	if r.Seconds, ok = s.float(); !ok {
		return r, false
	}
	if s.lit(`,"raw":[`) {
		// Numbers hold no ',' or ']', so the elements between here and
		// the first ']' are one more than its commas — if they are
		// numbers at all, which the loop checks.
		end := bytes.IndexByte(s.b, ']')
		if end < 0 {
			return r, false
		}
		raw := make([]float64, bytes.Count(s.b[:end], []byte{','})+1)
		for i := range raw {
			if i > 0 && !s.lit(",") {
				return r, false
			}
			if raw[i], ok = s.float(); !ok {
				return r, false
			}
		}
		if !s.lit("]") {
			return r, false
		}
		r.Raw = raw
	}
	if s.lit(`,"trim_frac":`) {
		if r.TrimFrac, ok = s.float(); !ok {
			return r, false
		}
	}
	if s.lit(`,"passes":`) {
		n, ok := s.number()
		if !ok {
			return r, false
		}
		p, err := strconv.ParseInt(string(n), 10, 64)
		if err != nil {
			return r, false
		}
		r.Passes = int(p)
	}
	return r, s.lit("}}") && len(s.b) == 0
}

// plainJSON reports whether s is printable ASCII that a JSON encoder
// writes as it is: no quote, no backslash, none of the <, > and & that
// encoding/json escapes for HTML.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < ' ' || c > '~', c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// scanner walks a record's bytes front to back.
type scanner struct{ b []byte }

// lit consumes s if the bytes start with it.
func (s *scanner) lit(lit string) bool {
	if len(s.b) < len(lit) || string(s.b[:len(lit)]) != lit {
		return false
	}
	s.b = s.b[len(lit):]
	return true
}

// number consumes one number by the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
func (s *scanner) number() ([]byte, bool) {
	b, i := s.b, 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	s.b = b[i:]
	return b[:i], true
}

// float consumes one number and converts it as encoding/json converts a
// number it stores in a float64. Out of range is a refusal, as it is a
// decoding error there.
func (s *scanner) float() (float64, bool) {
	n, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(n), 64)
	return v, err == nil
}

// digits returns the index of the first byte at or after i that is not
// a decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}
