package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// The JSON DataBatch codec is specialised to the fixed five-field schema
// (docs/PERFORMANCE.md "Pipeline codec"). The wire format is
// encoding/json's, byte for byte: the encoder reproduces its output
// exactly, and the decoder reads only that canonical layout itself and
// hands every other input to json.Unmarshal, so what is accepted,
// rejected and decoded is unchanged by construction. encoding/json is
// the oracle the tests and FuzzJSONBatchDecode compare against.
//
// A float is converted only where somebody reads it. A batch decoded
// from the canonical layout keeps the record's "inputs" bytes and the
// encoder copies them back, so re-encoding it yields the same bytes as
// json.Marshal for every record the encoder wrote; a canonical-layout
// record whose numbers a foreign producer spelled differently ("1.0",
// "1e0", surplus digits) keeps the producer's spelling — equal as
// float32, not byte-equal to a re-format. stampJSON reads a record's id
// and created_ns and converts no float at all.

// jsonScratch holds the encoder's working buffers. The result is copied
// out at its exact length, as encoding/json does, because the in-process
// broker retains the returned slice for the life of the topic.
var jsonScratch = sync.Pool{New: func() any {
	buf := make([]byte, 0, 16<<10)
	return &buf
}}

// MarshalJSONBatch serialises the batch with the pipeline's default codec.
func MarshalJSONBatch(b *DataBatch) ([]byte, error) {
	scratch := jsonScratch.Get().(*[]byte)
	buf, finite := appendJSONBatch((*scratch)[:0], b)
	var out []byte
	if finite {
		out = bytes.Clone(buf)
	}
	*scratch = buf
	jsonScratch.Put(scratch)
	if !finite {
		// NaN or ±Inf: encoding/json words the error.
		return json.Marshal(b)
	}
	return out, nil
}

// appendJSONBatch appends b as json.Marshal writes it, reporting false
// if it met a value JSON cannot represent.
func appendJSONBatch(buf []byte, b *DataBatch) ([]byte, bool) {
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendInt(buf, b.ID, 10)
	buf = append(buf, `,"created_ns":`...)
	buf = strconv.AppendInt(buf, b.CreatedNanos, 10)
	buf = append(buf, `,"count":`...)
	buf = strconv.AppendInt(buf, int64(b.Count), 10)
	buf = append(buf, `,"inputs":`...)
	finite := true
	if span := b.wireSpan(true); span != nil {
		buf = append(buf, span...)
	} else if b.Inputs == nil {
		buf = append(buf, "null"...)
	} else {
		buf, finite = appendJSONFloats(buf, b.Inputs)
	}
	if finite && len(b.Predictions) > 0 {
		buf = append(buf, `,"predictions":`...)
		buf, finite = appendJSONFloats(buf, b.Predictions)
	}
	return append(buf, '}'), finite
}

// appendJSONFloats appends vals as a JSON array with encoding/json's
// float32 formatting (ES6 number-to-string: 'e' below 1e-6 and from
// 1e21, "e-07" shortened to "e-7"). It reports false at the first NaN or
// infinity, which JSON cannot represent.
func appendJSONFloats(buf []byte, vals []float32) ([]byte, bool) {
	buf = append(buf, '[')
	for i, v := range vals {
		if i > 0 {
			buf = append(buf, ',')
		}
		abs := v
		if abs < 0 {
			abs = -abs
		}
		if !(abs <= math.MaxFloat32) {
			return buf, false
		}
		format := byte('f')
		if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		buf = strconv.AppendFloat(buf, float64(v), format, -1, 32)
		if n := len(buf); format == 'e' && n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return append(buf, ']'), true
}

// UnmarshalJSONBatch parses a batch serialised by MarshalJSONBatch. The
// batch borrows data: MarshalJSONBatch of it copies the bytes of
// "inputs" out of data, so data must stay unchanged while the batch is
// in use (Inputs itself is a fresh slice, and Score's scratch). Header
// fields and Predictions edited after the decode are always honoured; to
// re-encode different inputs assign Inputs a new slice.
func UnmarshalJSONBatch(data []byte) (*DataBatch, error) {
	b := new(DataBatch)
	if !decodeCanonicalJSON(data, b) {
		*b = DataBatch{}
		if err := json.Unmarshal(data, b); err != nil {
			return nil, fmt.Errorf("core: batch decode: %w", err)
		}
	}
	if b.Count <= 0 {
		return nil, fmt.Errorf("core: batch %d has non-positive count %d", b.ID, b.Count)
	}
	return b, nil
}

// decodeCanonicalJSON decodes data into b if data is exactly the layout
// MarshalJSONBatch writes: the five keys in declaration order, no
// whitespace, "inputs" an array, "predictions" present or absent. It
// reports false — leaving b partly written — for anything else,
// including input json.Unmarshal would also accept (reordered keys,
// null, escapes) or reject (malformed or out-of-range numbers); the
// caller then asks json.Unmarshal.
func decodeCanonicalJSON(data []byte, b *DataBatch) bool {
	var count int64
	var ok bool
	p := data
	if b.ID, b.CreatedNanos, count, p, ok = cutJSONHeader(p); !ok {
		return false
	}
	b.Count = int(count)
	inputs := p
	if b.Inputs, p, ok = cutJSONFloats(p); !ok {
		return false
	}
	b.retainInputs(inputs[:len(inputs)-len(p)], true)
	if rest, found := cutLiteral(p, `,"predictions":`); found {
		if b.Predictions, p, ok = cutJSONFloats(rest); !ok {
			return false
		}
	}
	return len(p) == 1 && p[0] == '}'
}

// stampJSON reads id and created_ns from a record in the canonical
// layout and converts no float: it checks every number of both arrays
// against the JSON grammar and reports false for a record it cannot
// vouch for — anything decodeCanonicalJSON would refuse, a count the
// full decode rejects, and a number that could overflow a float32 (an
// exponent, or 39 or more integer digits; 38 nines are below
// math.MaxFloat32). The caller then runs UnmarshalJSONBatch, whose
// verdict and error text it is.
func stampJSON(data []byte) (id, createdNanos int64, ok bool) {
	var count int64
	p := data
	if id, createdNanos, count, p, ok = cutJSONHeader(p); !ok || count <= 0 {
		return 0, 0, false
	}
	if p, ok = skipPlainJSONFloats(p); !ok {
		return 0, 0, false
	}
	if rest, found := cutLiteral(p, `,"predictions":`); found {
		if p, ok = skipPlainJSONFloats(rest); !ok {
			return 0, 0, false
		}
	}
	return id, createdNanos, len(p) == 1 && p[0] == '}'
}

// cutJSONHeader parses the canonical layout up to the value of
// "inputs" and returns what follows.
func cutJSONHeader(p []byte) (id, createdNanos, count int64, rest []byte, ok bool) {
	if p, ok = cutLiteral(p, `{"id":`); !ok {
		return 0, 0, 0, p, false
	}
	if id, p, ok = cutJSONInt(p); !ok {
		return 0, 0, 0, p, false
	}
	if p, ok = cutLiteral(p, `,"created_ns":`); !ok {
		return 0, 0, 0, p, false
	}
	if createdNanos, p, ok = cutJSONInt(p); !ok {
		return 0, 0, 0, p, false
	}
	if p, ok = cutLiteral(p, `,"count":`); !ok {
		return 0, 0, 0, p, false
	}
	if count, p, ok = cutJSONInt(p); !ok || int64(int(count)) != count {
		return 0, 0, 0, p, false
	}
	p, ok = cutLiteral(p, `,"inputs":`)
	return id, createdNanos, count, p, ok
}

// skipPlainJSONFloats steps over the JSON array at the start of p if
// every element is a number without an exponent and with at most 38
// integer digits — -?(0|[1-9][0-9]{0,37})(\.[0-9]+)? — which
// strconv.ParseFloat(…, 32) cannot refuse.
func skipPlainJSONFloats(p []byte) ([]byte, bool) {
	if len(p) < 2 || p[0] != '[' {
		return p, false
	}
	if p[1] == ']' {
		return p[2:], true
	}
	for i := 1; ; {
		if i < len(p) && p[i] == '-' {
			i++
		}
		if i < len(p) && p[i] == '0' {
			i++
		} else if n := jsonDigitsLen(p[i:]); n == 0 || n > 38 {
			return p, false
		} else {
			i += n
		}
		if i < len(p) && p[i] == '.' {
			n := jsonDigitsLen(p[i+1:])
			if n == 0 {
				return p, false
			}
			i += 1 + n
		}
		if i == len(p) {
			return p, false
		}
		switch p[i] {
		case ',':
			i++
		case ']':
			return p[i+1:], true
		default:
			return p, false
		}
	}
}

// cutLiteral returns p without the leading lit, if p starts with it.
func cutLiteral(p []byte, lit string) ([]byte, bool) {
	if len(p) < len(lit) || string(p[:len(lit)]) != lit {
		return p, false
	}
	return p[len(lit):], true
}

// cutJSONInt parses the JSON integer at the start of p — the number
// grammar without fraction or exponent, which is all json.Unmarshal
// accepts for an int64 field — and returns what follows it.
func cutJSONInt(p []byte) (int64, []byte, bool) {
	n := jsonIntLen(p)
	if n == 0 {
		return 0, p, false
	}
	// The conversion does not escape, so it does not allocate.
	v, err := strconv.ParseInt(string(p[:n]), 10, 64)
	return v, p[n:], err == nil
}

// cutJSONFloats parses the JSON array of numbers at the start of p and
// returns what follows it. The slice is sized from the comma count
// before any number is parsed, so it is bounded by len(p) and never
// grows; an empty array yields an empty, non-nil slice as json.Unmarshal
// does.
func cutJSONFloats(p []byte) ([]float32, []byte, bool) {
	if len(p) == 0 || p[0] != '[' {
		return nil, p, false
	}
	end := bytes.IndexByte(p, ']')
	if end < 0 {
		return nil, p, false
	}
	body, rest := p[1:end], p[end+1:]
	if len(body) == 0 {
		return []float32{}, rest, true
	}
	vals := make([]float32, bytes.Count(body, []byte{','})+1)
	for i := range vals {
		v, n, ok := parseJSONFloat32(body)
		if !ok {
			return nil, p, false
		}
		vals[i] = v
		body = body[n:]
		if i < len(vals)-1 {
			if len(body) == 0 || body[0] != ',' {
				return nil, p, false
			}
			body = body[1:]
		}
	}
	return vals, rest, len(body) == 0
}

// jsonIntLen returns the length of the JSON integer — -?(0|[1-9][0-9]*)
// — at the start of p, or 0 if there is none.
func jsonIntLen(p []byte) int {
	i := 0
	if i < len(p) && p[i] == '-' {
		i++
	}
	switch {
	case i < len(p) && p[i] == '0':
		return i + 1
	case i < len(p) && '1' <= p[i] && p[i] <= '9':
		return i + jsonDigitsLen(p[i:])
	}
	return 0
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseJSONFloat32 parses the JSON number (RFC 8259 §6) at the start of
// p as strconv.ParseFloat(…, 32) does, bit for bit, and returns its
// length; false if p starts with no JSON number or strconv refuses it
// (out of float32 range). strconv accepts more ("1.", ".5", "+1",
// "0x1p-2", "Inf"), so the grammar is enforced here, in the same scan
// that gathers up to 19 significant digits.
//
// Without an exponent, with at most 19 significant digits making a
// mantissa m ≤ 2^53 and at most 22 digits after the point, m and the
// power of ten d are exact float64s, so m/d is correctly rounded to
// float64 (Clinger's fast path). Rounding that on to float32 gives the correctly
// rounded float32 unless the float64 sits exactly halfway between two
// float32s — low 29 mantissa bits 1<<28 (no such value is subnormal in
// either format) — where the decimal may lie on either side. That, and
// every number outside the fast path, goes to strconv.
func parseJSONFloat32(p []byte) (float32, int, bool) {
	i := 0
	neg := i < len(p) && p[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	digits, exp10 := 0, 0 // the number is mant·10^exp10 while exact holds
	exact := true
	switch {
	case i < len(p) && p[i] == '0':
		i++
	case i < len(p) && '1' <= p[i] && p[i] <= '9':
		for ; i < len(p) && digits < 19; i++ {
			c := p[i] - '0'
			if c > 9 {
				break
			}
			mant = mant*10 + uint64(c)
			digits++
		}
		if n := jsonDigitsLen(p[i:]); n > 0 {
			i += n
			exact = false
		}
	default:
		return 0, 0, false
	}
	if i < len(p) && p[i] == '.' {
		i++
		start := i
		if digits == 0 {
			for i < len(p) && p[i] == '0' { // leading zeros are not significant
				i++
			}
		}
		for ; i < len(p) && digits < 19; i++ {
			c := p[i] - '0'
			if c > 9 {
				break
			}
			mant = mant*10 + uint64(c)
			digits++
		}
		exp10 = start - i
		if n := jsonDigitsLen(p[i:]); n > 0 {
			i += n
			exact = false
		}
		if i == start {
			return 0, 0, false
		}
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		j := i + 1
		if j < len(p) && (p[j] == '+' || p[j] == '-') {
			j++
		}
		n := jsonDigitsLen(p[j:])
		if n == 0 {
			return 0, 0, false
		}
		i = j + n
		exact = false
	}
	if exact && mant <= 1<<53 && exp10 >= -22 {
		f := float64(mant) / exactPow10[-exp10]
		if neg {
			f = -f
		}
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			return float32(f), i, true
		}
	}
	// As in cutJSONInt, the conversion stays on the stack for any number
	// of ordinary length.
	v, err := strconv.ParseFloat(string(p[:i]), 32)
	return float32(v), i, err == nil
}

// jsonDigitsLen returns how many ASCII digits p starts with.
func jsonDigitsLen(p []byte) int {
	i := 0
	for i < len(p) && '0' <= p[i] && p[i] <= '9' {
		i++
	}
	return i
}
