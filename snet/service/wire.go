package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/snet"
)

// The wire format of the record-carrying endpoints.  The reader takes what
// encoding/json's Decoder takes for an endpoint's body struct and reads the
// same values: keys match under case folding, unknown members are skipped,
// null leaves a member as it is, a repeated member decodes into what the
// earlier one left, integers take no fraction or exponent, and what follows
// the top-level value is ignored.  It builds records in the arena, as
// GenericCodec.Decode does.  encoding/json words a rejection, decoding the
// same bytes into the body struct, and unescapes a string token holding a
// backslash or invalid UTF-8.  The writer renders a record as json.Encoder
// renders GenericCodec's RecordJSON of it.
type (
	openBody = struct {
		Net string `json:"net"`
	}
	recordsBody = struct {
		Records []RecordJSON `json:"records"`
		Close   bool         `json:"close"`
	}
	runBody = struct {
		Net     string       `json:"net"`
		Records []RecordJSON `json:"records"`
		Max     int          `json:"max"`
		Wait    string       `json:"wait"`
	}
)

// The members of the body structs, as bits of the mask a body is read with.
const (
	memNet = 1 << iota
	memRecords
	memMax
	memWait
	memClose
)

var (
	memberNames          = [...][]byte{[]byte("net"), []byte("records"), []byte("max"), []byte("wait"), []byte("close")}
	tagsName, fieldsName = []byte("tags"), []byte("fields")
)

// maxBody bounds a request body, maxDepth its nesting as encoding/json does.
const maxBody, maxDepth = 4 << 20, 10000

// wireRecord is a "records" element sized as a RecordJSON, so that the array
// grows to a []RecordJSON's capacities: a repeated "records" member decodes
// into the elements the earlier one left, those past its length included.
type wireRecord struct {
	rec *snet.Record
	_   uintptr
}

// readBody reads a request body of at most maxBody bytes, taking the members
// in mask; body returns the endpoint's body struct, to word a rejection.
func readBody(w http.ResponseWriter, r *http.Request, mask int, body func() any) (*wireReader, error) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	p := &wireReader{b: b, mask: mask}
	c, _, ok := p.value(p.member)
	if ok = ok && (c == '{' || c == 'n'); !ok {
		p.recs = p.recs[:0] // every record built goes back
	}
	releaseWire(p.recs[len(p.recs):cap(p.recs)])
	if !ok {
		if err = json.NewDecoder(bytes.NewReader(b)).Decode(body()); err == nil {
			err = errors.New("malformed request body")
		}
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	p.records = make([]*snet.Record, len(p.recs))
	for i, w := range p.recs {
		p.records[i] = w.rec
	}
	return p, nil
}

func releaseWire(ws []wireRecord) {
	for _, w := range ws {
		if w.rec != nil {
			snet.ReleaseRecord(w.rec)
		}
	}
}

// inputs returns the request's records as codec decodes them.
func (p *wireReader) inputs(codec Codec) ([]*snet.Record, error) {
	if _, ok := codec.(GenericCodec); ok {
		return p.records, nil
	}
	for i, r := range p.records {
		rec, err := codec.Decode(GenericCodec{}.Encode(r))
		snet.ReleaseRecord(r)
		if err != nil {
			releaseRecords(p.records[:i])
			releaseRecords(p.records[i+1:])
			return nil, err
		}
		p.records[i] = rec
	}
	return p.records, nil
}

// wireReader is one pass over a body and the request it read.  A method
// reporting false has met a byte encoding/json refuses, or a value the
// struct field cannot take.
type wireReader struct {
	b        []byte
	i, depth int
	mask     int
	recs     []wireRecord

	net, wait string
	max       int
	close     bool
	records   []*snet.Record
}

// next skips white space and returns the next byte, 0 at the end.
func (p *wireReader) next() byte {
	for ; p.i < len(p.b); p.i++ {
		if c := p.b[p.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// skip reads one of the bytes in set.
func (p *wireReader) skip(set string) bool {
	if p.i < len(p.b) && strings.IndexByte(set, p.b[p.i]) >= 0 {
		p.i++
		return true
	}
	return false
}

// digits reads one or more decimal digits.
func (p *wireReader) digits() bool {
	start := p.i
	for p.skip("0123456789") {
	}
	return p.i > start
}

// value reads a value and returns its first byte and its token.  It calls fn
// for each member of an object with the key token, for each element of an
// array with nil; a nil fn skips them.
func (p *wireReader) value(fn func(key []byte) bool) (c byte, tok []byte, ok bool) {
	c, start := p.next(), p.i
	switch c {
	case '{', '[':
		if p.depth++; p.depth > maxDepth {
			return c, nil, false
		}
		p.i++
		empty := p.next() == c+2 // c+2 is '}' or ']'
		for more := !empty; more; p.i++ {
			var key []byte
			if c == '{' {
				var kc byte
				if kc, key, ok = p.value(nil); !ok || kc != '"' || p.next() != ':' {
					return c, nil, false
				}
				p.i++
			}
			if fn == nil {
				_, _, ok = p.value(nil)
			} else {
				ok = fn(key)
			}
			d := p.next()
			if !ok || d != c+2 && d != ',' {
				return c, nil, false
			}
			more = d == ','
		}
		if empty {
			p.i++
		}
		p.depth--
		ok = true
	case '"':
		esc := false
		for p.i++; p.i < len(p.b) && p.b[p.i] != '"' && p.b[p.i] >= 0x20; p.i++ {
			if p.b[p.i] == '\\' {
				esc, p.i = true, p.i+1
			}
		}
		if ok = p.i < len(p.b) && p.b[p.i] == '"'; ok {
			p.i++
			ok = !esc || json.Unmarshal(p.b[start:p.i], new(string)) == nil
		}
	case 't', 'f', 'n':
		word := "null"
		if c == 't' {
			word = "true"
		} else if c == 'f' {
			word = "false"
		}
		if ok = bytes.HasPrefix(p.b[p.i:], []byte(word)); ok {
			p.i += len(word)
		}
	default: // a number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
		p.skip("-")
		if ok = p.skip("0") || p.digits(); ok && p.skip(".") {
			ok = p.digits()
		}
		if ok && p.skip("eE") {
			p.skip("+-")
			ok = p.digits()
		}
	}
	if !ok {
		return c, nil, false
	}
	return c, p.b[start:p.i], true
}

// member reads a member of the top-level object.
func (p *wireReader) member(key []byte) bool {
	for i, name := range memberNames {
		if key != nil && p.mask&(1<<i) != 0 && keyIs(key, name) {
			if 1<<i == memRecords {
				return p.readRecords()
			}
			return p.scalar([...]any{&p.net, nil, &p.max, &p.wait, &p.close}[i])
		}
	}
	_, _, ok := p.value(nil)
	return ok && key != nil // an array does not decode into a struct
}

// scalar reads a value into dst, a *string, *int or *bool; null leaves it.
func (p *wireReader) scalar(dst any) bool {
	c, tok, ok := p.value(nil)
	if !ok || c == 'n' {
		return ok
	}
	switch d := dst.(type) {
	case *string:
		v, ok := unquote(tok)
		*d = string(v)
		return ok
	case *bool:
		*d = c == 't'
		return c == 't' || c == 'f'
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	*dst.(*int) = int(n)
	return err == nil
}

// readRecords reads a "records" member into p.recs.
func (p *wireReader) readRecords() bool {
	n := 0
	c, _, ok := p.value(func(key []byte) bool {
		if n == cap(p.recs) {
			p.recs = append(p.recs, wireRecord{})
		}
		p.recs = p.recs[:n+1] // past len: the element an earlier array left
		w := &p.recs[n]
		if n++; w.rec == nil {
			w.rec = snet.AcquireRecord()
		}
		return key == nil && p.readRecord(w.rec)
	})
	if p.recs = p.recs[:n]; c == 'n' || n == 0 {
		releaseWire(p.recs[:cap(p.recs)])
		p.recs = nil
	}
	return ok && (c == '[' || c == 'n')
}

// readRecord reads a "records" element into r.
func (p *wireReader) readRecord(r *snet.Record) bool {
	c, _, ok := p.value(func(key []byte) bool {
		tags := key != nil && keyIs(key, tagsName)
		if !tags && (key == nil || !keyIs(key, fieldsName)) {
			_, _, ok := p.value(nil)
			return ok && key != nil
		}
		c, _, ok := p.value(func(key []byte) bool {
			var n int
			var s string
			name, ok := unquote(key)
			if ok && tags {
				ok = p.scalar(&n)
				r.SetTag(string(name), n)
			} else if ok {
				ok = p.scalar(&s)
				r.SetField(string(name), s)
			}
			return ok
		})
		if c == 'n' {
			names, del := r.FieldNames(), r.DeleteField
			if tags {
				names, del = r.TagNames(), r.DeleteTag
			}
			for _, k := range names {
				del(k)
			}
		}
		return ok && (c == '{' || c == 'n')
	})
	return ok && (c == '{' || c == 'n')
}

// keyIs reports whether a key token names a member, exactly or under Unicode
// case folding.
func keyIs(token, name []byte) bool {
	key, ok := unquote(token)
	return ok && bytes.EqualFold(key, name)
}

// unquote returns the value of a string token, false for any other token.
func unquote(token []byte) ([]byte, bool) {
	if len(token) < 2 || token[0] != '"' {
		return nil, false
	}
	if raw := token[1 : len(token)-1]; bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw) {
		return raw, true
	}
	var s string
	err := json.Unmarshal(token, &s)
	return []byte(s), err == nil
}

// appendString appends s as json.Encoder writes a string: HTML-safe, with
// U+2028 and U+2029 escaped and invalid UTF-8 as the escape \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' &&
			c != '\u2028' && c != '\u2029' && (c != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		if j := strings.IndexRune("\"\\\b\f\n\r\t", c); j >= 0 {
			b = append(b, '\\', `"\bfnrt`[j])
		} else if c == utf8.RuneError {
			b = append(b, `\ufffd`...)
		} else {
			b = append(b, '\\', 'u', hex[c>>12], hex[c>>8&0xF], hex[c>>4&0xF], hex[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendRecords appends the JSON array of the records' wire forms.  A
// registered codec's form is rendered through the record GenericCodec
// decodes it to.
func appendRecords(b []byte, codec Codec, recs []*snet.Record) []byte {
	b = append(b, '[')
	for i, r := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		if _, ok := codec.(GenericCodec); ok {
			b = appendRecord(b, r)
		} else {
			g, _ := GenericCodec{}.Decode(codec.Encode(r))
			b = appendRecord(b, g)
			snet.ReleaseRecord(g)
		}
	}
	return append(b, ']')
}

// appendRecord appends GenericCodec's wire form of r.
func appendRecord(b []byte, r *snet.Record) []byte {
	tags, sep := r.TagNames(), `{"tags":{`
	for _, k := range tags {
		v, _ := r.Tag(k)
		b = strconv.AppendInt(append(appendString(append(b, sep...), k), ':'), int64(v), 10)
		sep = ","
	}
	if sep = `{"fields":{`; len(tags) > 0 {
		sep = `},"fields":{`
	}
	for _, k := range r.FieldNames() {
		v, _ := r.Field(k)
		s, ok := v.(string)
		if !ok {
			s = fmt.Sprint(v)
		}
		b = appendString(append(appendString(append(b, sep...), k), ':'), s)
		sep = ","
	}
	if r.NumLabels() == 0 {
		return append(b, "{}"...)
	}
	return append(b, "}}"...)
}
