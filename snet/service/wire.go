package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/snet"
)

// The wire format of the record-carrying endpoints.  A body in the canonical
// form — the form this repository's clients send — is read in one pass
// straight into arena records: a top-level object holding only the
// endpoint's own members, each at most once, spelt exactly as its json tag
// and none of them null, whose "records" are objects with at most one "tags"
// (integers without fraction, exponent or leading zero) and at most one
// "fields" (strings).  A string holds no escape, control character or
// invalid UTF-8.  What follows the top-level object is ignored, as
// encoding/json's Decoder ignores it.  Any other body, and the records of
// any network with a registered codec, are encoding/json's: it decodes the
// endpoint's body struct, or words the rejection.  The writer renders a
// record as json.Encoder renders its codec's RecordJSON of it.
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

// maxBody bounds a request body.
const maxBody = 4 << 20

// readBody reads a request body of at most maxBody bytes, taking the members
// in mask; body returns the endpoint's body struct, which encoding/json
// decodes a body outside the canonical form into.
func readBody(w http.ResponseWriter, r *http.Request, mask int, body func() any) (*wireReader, error) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	p := &wireReader{b: b}
	if p.canonical(mask) {
		return p, nil
	}
	releaseRecords(p.records)
	v := body()
	if err = json.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	var wire []RecordJSON
	*p = wireReader{b: b}
	switch v := v.(type) {
	case *openBody:
		p.net = v.Net
	case *recordsBody:
		wire, p.close = v.Records, v.Close
	case *runBody:
		p.net, wire, p.max, p.wait = v.Net, v.Records, v.Max, v.Wait
	}
	p.records = make([]*snet.Record, len(wire))
	for i, w := range wire {
		p.records[i], _ = GenericCodec{}.Decode(w) // which fails on nothing
	}
	return p, nil
}

// inputs returns the request's records as codec decodes them.  A registered
// codec decodes the RecordJSONs encoding/json reads from the body.
func (p *wireReader) inputs(codec Codec) ([]*snet.Record, error) {
	if _, ok := codec.(GenericCodec); ok {
		return p.records, nil
	}
	releaseRecords(p.records)
	var body struct {
		Records []RecordJSON `json:"records"`
	}
	_ = json.NewDecoder(bytes.NewReader(p.b)).Decode(&body) // readBody took the body
	p.records = p.records[:0]
	for _, w := range body.Records {
		rec, err := codec.Decode(w)
		if err != nil {
			releaseRecords(p.records)
			return nil, err
		}
		p.records = append(p.records, rec)
	}
	return p.records, nil
}

// wireReader is one pass over a body and the request it read.  A method
// reporting false has met a byte outside the canonical form.
type wireReader struct {
	b []byte
	i int

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

// eat skips white space and reads c, which is never next's 0.
func (p *wireReader) eat(c byte) bool {
	if p.next() != c {
		return false
	}
	p.i++
	return true
}

// list reads start, then items separated by commas, then end.
func (p *wireReader) list(start, end byte, item func() bool) bool {
	if !p.eat(start) {
		return false
	}
	if p.eat(end) {
		return true
	}
	for item() {
		if p.eat(end) {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
	return false
}

// str reads a string and returns its bytes.
func (p *wireReader) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) && p.b[p.i] != '"' && p.b[p.i] != '\\' && p.b[p.i] >= 0x20 {
		p.i++
	}
	s := p.b[start:p.i]
	if p.i == len(p.b) || p.b[p.i] != '"' || !utf8.Valid(s) {
		return nil, false
	}
	p.i++
	return s, true
}

// key reads a member's name and the colon after it.
func (p *wireReader) key() ([]byte, bool) {
	k, ok := p.str()
	return k, ok && p.eat(':')
}

// bit returns 1<<i for a key that is names[i], 0 for any other.
func bit(key []byte, names ...string) int {
	for i, name := range names {
		if string(key) == name {
			return 1 << i
		}
	}
	return 0
}

// integer reads an integer that fits an int.
func (p *wireReader) integer() (int, bool) {
	p.next()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	digits := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	if p.i == digits || p.b[digits] == '0' && p.i > digits+1 {
		return 0, false
	}
	n, err := strconv.Atoi(string(p.b[start:p.i]))
	return n, err == nil
}

// canonical reads the body's top-level object.
func (p *wireReader) canonical(mask int) bool {
	return p.list('{', '}', func() bool {
		k, ok := p.key()
		m := bit(k, "net", "records", "max", "wait", "close") // in the order of the bits
		if !ok || mask&m == 0 {
			return false
		}
		mask &^= m // a member is read at most once
		switch m {
		case memNet, memWait:
			s, ok := p.str()
			if m == memNet {
				p.net = string(s)
			} else {
				p.wait = string(s)
			}
			return ok
		case memMax:
			p.max, ok = p.integer()
			return ok
		case memClose:
			word := "false"
			if p.close = p.next() == 't'; p.close {
				word = "true"
			}
			ok = bytes.HasPrefix(p.b[p.i:], []byte(word))
			p.i += len(word)
			return ok
		}
		return p.list('[', ']', p.record)
	})
}

// record reads a "records" element into a record it appends.
func (p *wireReader) record() bool {
	r := snet.AcquireRecord()
	p.records = append(p.records, r)
	left := 3 // the bits of "tags" and "fields" not yet read
	return p.list('{', '}', func() bool {
		k, ok := p.key()
		m := bit(k, "tags", "fields")
		if !ok || left&m == 0 {
			return false
		}
		left &^= m
		tags := m == 1
		return p.list('{', '}', func() bool {
			name, ok := p.key()
			if !ok {
				return false
			}
			if tags {
				n, ok := p.integer()
				r.SetTag(string(name), n)
				return ok
			}
			s, ok := p.str()
			r.SetField(string(name), string(s))
			return ok
		})
	})
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
// registered codec's form is rendered by encoding/json.
func appendRecords(b []byte, codec Codec, recs []*snet.Record) []byte {
	b = append(b, '[')
	for i, r := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		if _, ok := codec.(GenericCodec); ok {
			b = appendRecord(b, r)
		} else {
			w, _ := json.Marshal(codec.Encode(r)) // maps of strings to ints and strings
			b = append(b, w...)
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
