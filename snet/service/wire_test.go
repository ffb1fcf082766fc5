package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/snet"
)

// wireBodies are the request bodies of the wire golden: each is posted to
// /api/run and to a session's /records, so every member one endpoint knows
// is an unknown member to the other.
var wireBodies = []string{
	// ordinary requests; records with zero, one and many labels
	`{"net":"echo","records":[{"tags":{"id":1},"fields":{"url":"/a"}}],"wait":"10s"}`,
	`{"net":"echo","records":[{}]}`,
	`{"net":"echo","records":[]}`,
	`{"net":"echo"}`,
	`{"net":"echo","records":[{"tags":{"n":7}}]}`,
	`{"net":"echo","records":[{"tags":{"c":3,"a":1,"b":-2},"fields":{"z":"","x":"1","y":"two"}},{"fields":{"only":"f"}},{"tags":{"t":0}}]}`,
	` 	{ "net" : "echo" , "records" : [ { "tags" : { "n" : 1 } } ] }
`,
	// strings: escapes, surrogate pairs, raw and invalid UTF-8, HTML, line
	// separators, control characters
	`{"net":"echo","records":[{"fields":{"s":"q\"b\\s\/e\u00e9p\ud83d\ude00"}}]}`,
	`{"net":"echo","records":[{"fields":{"s":"é😀 raw ✓"}}]}`,
	"{\"net\":\"echo\",\"records\":[{\"fields\":{\"s\":\"bad\xff\xfeutf8\",\"k\xc3\":\"v\"}}]}",
	`{"net":"echo","records":[{"fields":{"html":"<a href=\"x\">&amp;</a>"}}]}`,
	"{\"net\":\"echo\",\"records\":[{\"fields\":{\"ls\":\"a\u2028b\u2029c\",\"esc\":\"\\u2028\\u2029\"}}]}",
	`{"net":"echo","records":[{"fields":{"ctl":"\u0001\b\f\n\r\t\u001f\u007f"}}]}`,
	"{\"net\":\"echo\",\"records\":[{\"fields\":{\"raw\":\"a\x01b\"}}]}",
	`{"net":"echo","records":[{"fields":{"lone":"\ud800x\udc00\ud83d"}}]}`,
	`{"net":"echo","records":[{"tags":{"né":1},"fields":{"<key>":"v"}}]}`,
	`{"net":"echo","records":[{"fields":{"s":"\x"}}]}`,
	`{"net":"echo","records":[{"fields":{"s":"\u12"}}]}`,
	// keys: case variants, unknown members, null for each member, duplicates
	`{"NET":"echo","Records":[{"TAGS":{"n":1},"Fields":{"f":"v"}}],"WAIT":"10s","Max":0}`,
	`{"net":"echo","recordſ":[{"tags":{"n":1}}],"wait":"10s"}`,
	`{"net":"echo","records":[{"fıelds":{"f":"v"},"tagſ":{"n":2}}]}`,
	`{"net":"echo","extra":{"a":[1,{"b":null},true,false,-1.5e-3,"s"],"c":"x"},"records":[{"tags":{"n":1},"more":[[],{}]}],"close":false}`,
	`{"net":null}`,
	`{"net":"echo","records":null}`,
	`{"net":"echo","records":[null,{"tags":{"n":1}}]}`,
	`{"net":"echo","records":[{"tags":null,"fields":null}]}`,
	`{"net":"echo","records":[{"tags":{"n":null},"fields":{"f":null}}]}`,
	`{"net":"echo","max":null,"wait":null,"close":null,"records":[{"tags":{"n":1}}]}`,
	`{"net":"nope","net":"echo","records":[{"tags":{"a":1,"a":2}}]}`,
	`{"net":"echo","net":null,"records":[{"tags":{"n":1}}]}`,
	`{"net":"echo","records":[{"tags":{"a":1}},{"tags":{"z":9}}],"records":[{"tags":{"b":2}}]}`,
	`{"net":"echo","records":[{"tags":{"a":1}},{"tags":{"z":9}}],"records":[{"tags":{"b":2}}],"records":[{},{}]}`,
	`{"net":"echo","records":[{"tags":{"a":1}}],"records":[],"records":[{}]}`,
	`{"net":"echo","records":[{"tags":{"a":1},"tags":{"b":2},"fields":{"f":"1"},"fields":{"f":"2"}}]}`,
	`{"net":"echo","records":[{"tags":{"a":1},"tags":null,"tags":{"b":2}}]}`,
	// trailing data, empty and truncated bodies, other top-level values
	`{"net":"echo","records":[{"tags":{"n":1}}]} trailing garbage`,
	`{"net":"echo"}{"net":"nope"}`,
	``,
	"  \n\t",
	`{"net":"echo","records":[{"tags":`,
	`{"net":"echo",}`,
	`{"net":"echo" "records":[]}`,
	`null`,
	`null `,
	`nullx`,
	`[]`,
	`"echo"`,
	`7`,
	`{"net":"echo","records":{}}`,
	`{"net":"echo","records":[1]}`,
	`{"net":"echo","records":[{"tags":[]}]}`,
	`{"net":"echo","records":[{"fields":{"f":1}}]}`,
	`{"net":7}`,
	// bad tag values
	`{"net":"echo","records":[{"tags":{"n":"x"}}]}`,
	`{"net":"echo","records":[{"tags":{"n":1.5}}]}`,
	`{"net":"echo","records":[{"tags":{"n":1e3}}]}`,
	`{"net":"echo","records":[{"tags":{"n":99999999999999999999}}]}`,
	`{"net":"echo","records":[{"tags":{"n":-9223372036854775808,"m":-0}}]}`,
	`{"net":"echo","records":[{"tags":{"n":true}}]}`,
	`{"net":"echo","records":[{"tags":{"n":01}}]}`,
	// max and wait
	`{"net":"echo","max":1,"records":[{"tags":{"n":1}},{"tags":{"n":2}},{"tags":{"n":3}}]}`,
	`{"net":"echo","max":-1,"records":[{"tags":{"n":1}}]}`,
	`{"net":"echo","max":"1","records":[{"tags":{"n":1}}]}`,
	`{"net":"echo","max":1.5,"records":[{"tags":{"n":1}}]}`,
	`{"net":"echo","max":1e0,"records":[{"tags":{"n":1}}]}`,
	`{"net":"echo","wait":"banana","records":[{"tags":{"n":1}}]}`,
	`{"net":"echo","wait":5,"records":[{"tags":{"n":1}}]}`,
	`{"net":"echo","wait":"20m","records":[{"tags":{"n":1}}]}`,
	// close on /records
	`{"records":[{"tags":{"n":1}}],"close":true}`,
	`{"records":[{"tags":{"n":1}}],"Close":"yes"}`,
	// refused records, unknown network
	`{"net":"echo","records":[{"tags":{"n":1}},{"tags":{"__snet_session":1}}]}`,
	`{"net":"nope","records":[{"tags":{"n":1}}]}`,
}

// wireResultQueries are /results query strings, asked in turn of a session
// fed three records and closed, and of one fed nothing.
var wireResultQueries = map[int][]string{
	3: {"?max=1", "?max=banana", "?wait=banana", "?max=0&wait=10s", "?wait=10s"},
	0: {"?wait=1ms", "?max=2&wait=1ms"},
}

var (
	msField   = regexp.MustCompile(`"ms":[-+.0-9eE]+`)
	sessionID = regexp.MustCompile(`/s[0-9]+/`)
)

// TestWireGolden pins what the record-carrying endpoints answer — status and
// body, "ms" masked — to testdata/wire.golden, in both session modes.
func TestWireGolden(t *testing.T) {
	var out bytes.Buffer
	for _, mode := range []SessionMode{Isolated, Shared} {
		svc := New()
		svc.Register("echo", "", Options{SessionMode: mode, BufferSize: 4}, func(Options) (snet.Node, error) {
			return snet.Observe("echo", nil), nil
		}, nil)
		h := svc.Handler()
		do := func(method, target, body string) {
			req := httptest.NewRequest(method, target, bytes.NewBufferString(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			reply := msField.ReplaceAllString(rec.Body.String(), `"ms":*`)
			target = sessionID.ReplaceAllString(target, "/{id}/")
			if len(body) > maxBody {
				body = fmt.Sprintf("<%d bytes>", len(body))
			}
			fmt.Fprintf(&out, "%s %s %q\n  %d %q\n", method, target, body, rec.Code, reply)
		}
		fmt.Fprintf(&out, "== %s\n", mode)
		for _, body := range wireBodies {
			do("POST", "/api/run", body)
		}
		for _, body := range wireBodies {
			sess, err := svc.Open("echo")
			if err != nil {
				t.Fatal(err)
			}
			do("POST", "/api/sessions/"+sess.ID()+"/records", body)
			sess.CloseInput()
			do("GET", "/api/sessions/"+sess.ID()+"/results?wait=10s", "")
			sess.Release()
		}
		for _, fed := range []int{3, 0} {
			sess, err := svc.Open("echo")
			if err != nil {
				t.Fatal(err)
			}
			if fed > 0 {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				if _, err := sess.SendBatch(ctx, []*snet.Record{recN(1), recN(2), recN(3)}); err != nil {
					t.Fatal(err)
				}
				cancel()
				sess.CloseInput()
			}
			for _, q := range wireResultQueries[fed] {
				do("GET", "/api/sessions/"+sess.ID()+"/results"+q, "")
			}
			sess.Release()
		}
		oversized := oversizedRun("echo")
		do("POST", "/api/run", oversized)
		sess, err := svc.Open("echo")
		if err != nil {
			t.Fatal(err)
		}
		do("POST", "/api/sessions/"+sess.ID()+"/records", oversized)
		sess.Release()
		svc.Shutdown()
	}

	const golden = "testdata/wire.golden"
	if *updateGoldens {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got := bytes.Split(out.Bytes(), []byte("\n"))
		for i, w := range bytes.Split(want, []byte("\n")) {
			if i >= len(got) || !bytes.Equal(got[i], w) {
				t.Fatalf("%s:%d differs:\n got  %s\n want %s", golden, i+1, lineAt(got, i), w)
			}
		}
		t.Fatalf("%s: %d lines, want %d", golden, len(got), len(bytes.Split(want, []byte("\n"))))
	}
}

// oversizedRun is a well-formed /api/run body one byte longer than maxBody.
func oversizedRun(net string) string {
	head := `{"net":"` + net + `","records":[{"fields":{"pad":"`
	tail := `"}}]}`
	return head + strings.Repeat("x", maxBody+1-len(head)-len(tail)) + tail
}

func lineAt(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return nil
}

// FuzzWireDecode: on any body, the wire reader and encoding/json's Decoder
// into the endpoint's body struct agree on accept or reject, and on every
// member and record label they read.
func FuzzWireDecode(f *testing.F) {
	for _, body := range wireBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var run runBody
		var recs recordsBody
		var open openBody
		for _, c := range []struct {
			mask int
			v    any
		}{{memNet | memRecords | memMax | memWait, &run}, {memRecords | memClose, &recs}, {memNet, &open}} {
			oerr := json.NewDecoder(bytes.NewReader(body)).Decode(c.v)
			req, err := readBody(httptest.NewRecorder(), httptest.NewRequest("POST", "/", bytes.NewReader(body)), c.mask, func() any { return c.v })
			if (err == nil) != (oerr == nil) {
				t.Fatalf("mask %b: reader %v, encoding/json %v", c.mask, err, oerr)
			}
			if err != nil {
				continue
			}
			var net, wait string
			var max int
			var close bool
			var wire []RecordJSON
			switch v := c.v.(type) {
			case *runBody:
				net, max, wait, wire = v.Net, v.Max, v.Wait, v.Records
			case *recordsBody:
				close, wire = v.Close, v.Records
			case *openBody:
				net = v.Net
			}
			if req.net != net || req.max != max || req.wait != wait || req.close != close || len(req.records) != len(wire) {
				t.Fatalf("mask %b: reader read net=%q max=%d wait=%q close=%v and %d records, encoding/json %+v",
					c.mask, req.net, req.max, req.wait, req.close, len(req.records), c.v)
			}
			for i, r := range req.records {
				if got, want := labelsOf(GenericCodec{}.Encode(r)), labelsOf(wire[i]); got != want {
					t.Fatalf("mask %b: record %d: reader %s, encoding/json %s", c.mask, i, got, want)
				}
			}
			releaseRecords(req.records)
		}
	})
}

// labelsOf renders a wire record with nil and empty maps alike.
func labelsOf(w RecordJSON) string {
	if len(w.Tags) == 0 {
		w.Tags = nil
	}
	if len(w.Fields) == 0 {
		w.Fields = nil
	}
	b, _ := json.Marshal(w)
	return string(b)
}

// TestWireWriterMatchesEncoder: over random records — HTML and control
// characters, U+2028/2029, invalid UTF-8, field values that are not strings
// — the /results reply the writer renders is the bytes json.Encoder writes
// for the map it replaces, through GenericCodec and through a registered
// codec.
func TestWireWriterMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	pieces := []string{"a", "Z", "0", " ", "<", ">", "&", `"`, `\`, "/", "\x00", "\x1f", "\n", "\t", "\x7f",
		"\u2028", "\u2029", "\ufffd", "é", "😀", "\xff", "\xc3", "\xed\xa0\x80"}
	str := func() string {
		var b strings.Builder
		for n := rng.IntN(6); n > 0; n-- {
			b.WriteString(pieces[rng.IntN(len(pieces))])
		}
		return b.String()
	}
	values := []func() any{
		func() any { return str() },
		func() any { return rng.IntN(2000) - 1000 },
		func() any { return rng.Float64() * 1e6 },
		func() any { return nil },
		func() any { return []int{1, 2} },
		func() any { return struct{ A string }{str()} },
	}
	for i := 0; i < 2000; i++ {
		recs := make([]*snet.Record, rng.IntN(4))
		for j := range recs {
			recs[j] = snet.NewRecord()
			for n := rng.IntN(4); n > 0; n-- {
				recs[j].SetTag(str(), rng.IntN(1<<40)-1<<39)
			}
			for n := rng.IntN(4); n > 0; n-- {
				recs[j].SetField(str(), values[rng.IntN(len(values))]())
			}
		}
		for _, codec := range []Codec{GenericCodec{}, reencoded{}} {
			rec := httptest.NewRecorder()
			done := i%2 == 0
			writeRecords(rec, strconv.AppendBool([]byte(`{"done":`), done), codec, recs)
			out := make([]RecordJSON, 0, len(recs))
			for _, r := range recs {
				out = append(out, codec.Encode(r))
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(map[string]any{"records": out, "done": done}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
				t.Fatalf("%T:\n writer  %q\n encoder %q", codec, rec.Body.Bytes(), want.Bytes())
			}
		}
	}
}

// reencoded is a registered codec: GenericCodec's, seen as any other.
type reencoded struct{ GenericCodec }
