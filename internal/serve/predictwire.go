package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unsafe"
)

// The predict hot path, without encoding/json. A predict body is a short
// list of (index, value) pairs, so parsing it through reflection costs
// far more than scoring it. decodePredict reads the body into a pooled
// scratch and parses the well-formed shape of the schema in place;
// anything outside that shape goes to decodeJSON over the same bytes,
// which answers it exactly as it always has. appendPredictResponse
// renders a 200 answer into the same scratch, byte for byte what
// writeJSON writes.
//
// The fast grammar: whitespace, '{', then members spelled exactly
// "indices", "values" or "instances", each at most once, then '}',
// whitespace and EOF. "indices" is an array of JSON integers that
// strconv.ParseInt takes, "values" an array of JSON numbers that
// strconv.ParseFloat(…, 64) takes, and "instances" an array of objects
// with the same two members. Those are the calls encoding/json makes, so
// every accepted number is bitwise what it would decode to. Any other
// key, a case variant or escaped key, null, a duplicate key, a
// fractional or overflowing index, an out-of-range value, a syntax error
// or trailing bytes takes the reference path.

// predictBodyBound is the largest predict body the fast path reads; a
// longer one is streamed to decodeJSON (under the same MaxBytesReader
// cap). It also bounds each of a scratch's other buffers: a scratch
// whose buffers grew past it is not pooled again.
const predictBodyBound = 64 << 10

// predictScratch is one request's working memory. The parsed request's
// slices alias idx, val and insts, so nothing may hold them after the
// handler returns the scratch to the pool.
type predictScratch struct {
	body  []byte // the body read so far; cap predictBodyBound
	err   error  // the read error that stopped read, if any
	idx   []int
	val   []float64
	spans []span // per instance, its range in idx and val
	insts []Instance
	out   []byte // the rendered response
}

// span locates one instance's indices idx[i0:i1] and values val[v0:v1].
type span struct{ i0, i1, v0, v1 int }

var predictScratches = sync.Pool{New: func() any {
	return &predictScratch{
		body:  make([]byte, 0, predictBodyBound),
		insts: make([]Instance, 0, 4), // non-nil: "instances":[] is not absent
	}
}}

func getPredictScratch() *predictScratch { return predictScratches.Get().(*predictScratch) }

func putPredictScratch(sc *predictScratch) {
	if max(cap(sc.out), cap(sc.idx)*8, cap(sc.val)*8,
		cap(sc.spans)*int(unsafe.Sizeof(span{})),
		cap(sc.insts)*int(unsafe.Sizeof(Instance{}))) > predictBodyBound {
		return
	}
	sc.body, sc.err = sc.body[:0], nil
	predictScratches.Put(sc)
}

// decodePredict decodes a predict body into req: on the fast grammar
// from the scratch, otherwise with decodeJSON over the bytes already
// read followed by the rest of body. It answers and reports false
// exactly when decodeJSON would.
func decodePredict(w http.ResponseWriter, body io.Reader, sc *predictScratch, req *PredictRequest) bool {
	if sc.read(body) && sc.parse(sc.body, req) {
		return true
	}
	rest := body
	if sc.err != nil {
		rest = errReader{sc.err}
	}
	// A local of its own, so that only this path pays for handing a
	// request to encoding/json.
	var ref PredictRequest
	if !decodeJSON(w, io.MultiReader(bytes.NewReader(sc.body), rest), &ref) {
		return false
	}
	*req = ref
	return true
}

// batch returns the instances req scores: its Instances, or else its
// shorthand pair as one instance held in the scratch. It reports false
// when req names neither.
func (sc *predictScratch) batch(req *PredictRequest) ([]Instance, bool) {
	if req.Instances != nil {
		return req.Instances, true
	}
	if len(req.Indices) == 0 && len(req.Values) == 0 {
		return nil, false
	}
	sc.insts = append(sc.insts[:0], Instance{Indices: req.Indices, Values: req.Values})
	return sc.insts, true
}

// errReader replays the error that stopped read, so that decodeJSON
// meets it where it would have.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// read fills sc.body from r and reports whether it holds the whole body:
// false when r failed or the body reached predictBodyBound.
func (sc *predictScratch) read(r io.Reader) bool {
	b := sc.body[:0]
	for len(b) < cap(b) {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			sc.body = b
			return true
		}
		if err != nil {
			sc.body, sc.err = b, err
			return false
		}
	}
	sc.body = b
	return false
}

// Member names the fast grammar knows.
const (
	keyIndices = iota
	keyValues
	keyInstances
	keyEnd // the object's closing brace
	keyBad // anything else
)

// parse decodes b into req on the fast grammar and reports whether it
// could. req's slices then alias the scratch; on false, req is untouched.
func (sc *predictScratch) parse(b []byte, req *PredictRequest) bool {
	sc.idx, sc.val, sc.spans = sc.idx[:0], sc.val[:0], sc.spans[:0]
	p := parser{b: b, sc: sc}
	var top span
	p.ws()
	if !p.eat('{') {
		return false
	}
	instances, ok := p.object(&top, true)
	p.ws()
	if !ok || p.i != len(b) {
		return false
	}
	*req = PredictRequest{
		Indices: sc.idx[top.i0:top.i1:top.i1],
		Values:  sc.val[top.v0:top.v1:top.v1],
	}
	if instances {
		sc.insts = sc.insts[:0]
		for _, s := range sc.spans {
			sc.insts = append(sc.insts, Instance{
				Indices: sc.idx[s.i0:s.i1:s.i1],
				Values:  sc.val[s.v0:s.v1:s.v1],
			})
		}
		req.Instances = sc.insts
	}
	return true
}

// parser is a cursor over one body.
type parser struct {
	b  []byte
	i  int
	sc *predictScratch
}

func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *parser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key consumes the separator before an object's next member and that
// member's name and colon, and returns which name it is; first is true
// right after the opening brace. At the closing brace it returns keyEnd.
func (p *parser) key(first bool) int {
	p.ws()
	if p.eat('}') {
		return keyEnd
	}
	if !first {
		if !p.eat(',') {
			return keyBad
		}
		p.ws()
	}
	if !p.eat('"') {
		return keyBad
	}
	k := keyBad
	for i, name := range [...]string{`indices"`, `values"`, `instances"`} {
		if rest := p.b[p.i:]; len(rest) >= len(name) && string(rest[:len(name)]) == name {
			k = i
			p.i += len(name)
			break
		}
	}
	if k == keyBad {
		return k
	}
	p.ws()
	if !p.eat(':') {
		return keyBad
	}
	p.ws()
	return k
}

// object parses the members of an object whose '{' is consumed, the
// "indices" and "values" ranges into s; an "instances" member is allowed
// at the top level only. It reports whether that member was present.
func (p *parser) object(s *span, top bool) (instances, ok bool) {
	var seen [3]bool
	for first := true; ; first = false {
		k := p.key(first)
		if k == keyEnd {
			return seen[keyInstances], true
		}
		if k == keyBad || seen[k] || k == keyInstances && !top {
			return false, false
		}
		seen[k] = true
		if k == keyInstances {
			ok = p.instances()
		} else {
			ok = p.member(k, s)
		}
		if !ok {
			return false, false
		}
	}
}

// member parses the value of an "indices" or "values" member into the
// scratch and records its range in s.
func (p *parser) member(k int, s *span) bool {
	if k == keyIndices {
		s.i0 = len(p.sc.idx)
		ok := p.array(true)
		s.i1 = len(p.sc.idx)
		return ok
	}
	s.v0 = len(p.sc.val)
	ok := p.array(false)
	s.v1 = len(p.sc.val)
	return ok
}

// array parses a JSON array of numbers, appending them to the scratch's
// indices (ints) or values.
func (p *parser) array(ints bool) bool {
	if !p.eat('[') {
		return false
	}
	p.ws()
	if p.eat(']') {
		return true
	}
	for {
		tok, integer := p.number()
		if tok == nil {
			return false
		}
		// strconv keeps no reference to its argument (its errors hold a
		// copy), so the token's bytes are lent to it, not copied.
		str := unsafe.String(&tok[0], len(tok))
		if ints {
			if !integer {
				return false
			}
			n, err := strconv.ParseInt(str, 10, 64)
			if err != nil {
				return false
			}
			p.sc.idx = append(p.sc.idx, int(n))
		} else {
			f, err := strconv.ParseFloat(str, 64)
			if err != nil {
				return false
			}
			p.sc.val = append(p.sc.val, f)
		}
		p.ws()
		if p.eat(']') {
			return true
		}
		if !p.eat(',') {
			return false
		}
		p.ws()
	}
}

// number consumes one token of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it (nil if
// there is none) and whether it has neither fraction nor exponent.
func (p *parser) number() (tok []byte, integer bool) {
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		i = digits(b, i+1)
	default:
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i, integer = j, false
		} else {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i, integer = j, false
		} else {
			return nil, false
		}
	}
	tok, p.i = b[p.i:i], i
	return tok, integer
}

// digits returns the index of the first non-digit in b from i on.
func digits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	return i
}

// instances parses the "instances" array into the scratch's spans.
func (p *parser) instances() bool {
	if !p.eat('[') {
		return false
	}
	p.ws()
	if p.eat(']') {
		return true
	}
	for {
		var s span
		if !p.eat('{') {
			return false
		}
		if _, ok := p.object(&s, false); !ok {
			return false
		}
		p.sc.spans = append(p.sc.spans, s)
		p.ws()
		if p.eat(']') {
			return true
		}
		if !p.eat(',') {
			return false
		}
		p.ws()
	}
}

// appendPredictResponse appends exactly the bytes writeJSON(w, 200,
// resp) writes: encoding/json's two-space indent, its number and string
// formats, and the trailing newline. Every score must be finite, which
// Registry.Predict guarantees.
func appendPredictResponse(b []byte, resp *PredictResponse) []byte {
	b = append(b, "{\n  \"model\": "...)
	b = appendQuoted(b, resp.Model)
	b = append(b, ",\n  \"seq\": "...)
	b = strconv.AppendUint(b, resp.Seq, 10)
	b = append(b, ",\n  \"epoch\": "...)
	b = strconv.AppendInt(b, int64(resp.Epoch), 10)
	b = append(b, ",\n  \"iters\": "...)
	b = strconv.AppendInt(b, resp.Iters, 10)
	b = append(b, ",\n  \"live\": "...)
	b = strconv.AppendBool(b, resp.Live)
	b = append(b, ",\n  \"predictions\": "...)
	switch {
	case resp.Predictions == nil:
		b = append(b, "null"...)
	case len(resp.Predictions) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, pr := range resp.Predictions {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {\n      \"score\": "...)
			b = appendFloat(b, pr.Score)
			b = append(b, ",\n      \"label\": "...)
			b = appendFloat(b, pr.Label)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...)
}

// appendFloat formats a finite f as encoding/json does: the shortest
// representation, in exponent form below 1e-6 and from 1e21 on, with a
// one-digit negative exponent written without its leading zero.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendQuoted appends s as a JSON string the way encoding/json quotes
// it. Printable ASCII other than '"', '\\' and the HTML-escaped '<', '>'
// and '&' goes out as is, which covers every name validName admits; any
// other name takes json.Marshal's path.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
