package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workloads"
	"repro/snet"
	"repro/snet/service"
)

var webpipeHTTP = &workload{
	name: "webpipe_http",
	why: "one-shot POST /api/run per record: snet/service (session open/release, JSON codec, handler) and " +
		"net/http do most of the work, internal/core pays one network instantiation per request",
	op:       "request",
	callOps:  1,
	sliceOps: 4700,
	traceOps: 2000,
	setup: func(seed int64, maxOps int) (instance, error) {
		return newWebHTTP(newWebTraffic(seed, maxOps))
	},
}

var webpipeStream = &workload{
	name: "webpipe_stream",
	why: "the same net and URLs as one steady stream: box engine, parallel routing, merge and frame " +
		"transport do all the work and the service none, so a gain for one use that costs the other shows",
	op:       "record",
	callOps:  batchSize,
	sliceOps: 32768,
	traceOps: 16384,
	setup: func(seed int64, maxOps int) (instance, error) {
		t := newWebTraffic(seed, maxOps)
		p, err := snet.Compile(workloads.WebPipeNet())
		if err != nil {
			return nil, err
		}
		return &webStream{
			t:        t,
			streamer: newStreamer(p, maxOps, t.record, t.checkRecord),
		}, nil
	},
}

// webTraffic is the seeded request stream of both webpipe workloads: a pool
// of URLs over the four classes the net tells apart (/api/*, /static/*,
// *.html, anything else) with their reference responses, and the order in
// which a slice requests them.
type webTraffic struct {
	urls   []string
	resp   []string
	status []int
	seq    []uint8 // request i of a slice asks for urls[seq[i]]
}

const webURLs = 64

func newWebTraffic(seed int64, maxOps int) *webTraffic {
	rng := rand.New(rand.NewSource(seed))
	word := func() string {
		b := make([]byte, 3+rng.Intn(8))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	t := &webTraffic{seq: make([]uint8, maxOps)}
	for i := 0; i < webURLs; i++ {
		var u string
		switch rng.Intn(4) {
		case 0:
			u = "/api/" + word()
		case 1:
			u = "/static/" + word() + ".js"
		case 2:
			u = "/" + word() + ".html"
		default:
			u = "/" + word() + "/" + word()
		}
		resp, status := workloads.WebPipeReference(u)
		t.urls = append(t.urls, u)
		t.resp = append(t.resp, resp)
		t.status = append(t.status, status)
	}
	for i := range t.seq {
		t.seq[i] = uint8(rng.Intn(webURLs))
	}
	return t
}

// url is the URL of request id; ids wrap around the slice's order.
func (t *webTraffic) url(id int) string { return t.urls[t.seq[id%len(t.seq)]] }

func (t *webTraffic) record(id int) *snet.Record {
	return snet.AcquireRecord().SetField("url", t.url(id)).SetTag("id", id)
}

// check compares a response with the sequential reference.
func (t *webTraffic) check(id int, resp string, status int) bool {
	if id < 0 {
		return false
	}
	u := t.seq[id%len(t.seq)]
	return resp == t.resp[u] && status == t.status[u]
}

// checkRecord compares an output record of the net with the reference and
// returns the id it carries.
func (t *webTraffic) checkRecord(r *snet.Record) (id int, ok bool) {
	id, hasID := r.Tag("id")
	resp, _ := r.Field("resp")
	status, _ := r.Tag("status")
	s, _ := resp.(string)
	return id, hasID && t.check(id, s, status)
}

func (t *webTraffic) reference(ops int) {
	for i := 0; i < ops; i++ {
		resp, status := workloads.WebPipeReference(t.url(i))
		if !t.check(i, resp, status) {
			panic("webpipe reference disagrees with itself")
		}
	}
}

// webStream is the webpipe_stream workload.
type webStream struct {
	t *webTraffic
	*streamer
}

func (w *webStream) reference(ops int) { w.t.reference(ops) }
func (w *webStream) build() snet.Node  { return workloads.WebPipeNet() }

// snetdOptions are the per-network options cmd/snetd defaults to.
var snetdOptions = service.Options{SessionMode: service.Isolated, BufferSize: 32}

// webHTTP is the webpipe_http workload: the service behind a real loopback
// listener in this process, driven by at most GOMAXPROCS keep-alive clients.
type webHTTP struct {
	t      *webTraffic
	svc    *service.Service
	srv    *http.Server
	served chan error
	client *http.Client
	url    string
	p      *snet.Plan
	conc   int
	lat    []int64
}

func newWebHTTP(t *webTraffic) (*webHTTP, error) {
	svc := service.New()
	n := svc.Register("webpipe", "request/response workload", snetdOptions,
		func(service.Options) (snet.Node, error) { return workloads.WebPipeNet(), nil }, nil)
	p, err := n.Plan()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	conc := runtime.GOMAXPROCS(0)
	w := &webHTTP{
		t: t, svc: svc, p: p, conc: conc,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conc, MaxConnsPerHost: conc}},
		url:    "http://" + ln.Addr().String() + "/api/run",
		lat:    make([]int64, len(t.seq)),
	}
	go func() { w.served <- w.srv.Serve(ln) }()
	return w, nil
}

// appendRunBody renders the /api/run request for one {url, <id>} record.
func appendRunBody(buf []byte, id int, url string) []byte {
	buf = append(buf, `{"net":"webpipe","records":[{"tags":{"id":`...)
	buf = strconv.AppendInt(buf, int64(id), 10)
	buf = append(buf, `},"fields":{"url":`...)
	buf = strconv.AppendQuote(buf, url)
	return append(buf, `}}],"wait":"30s"}`...)
}

// runReply is the part of the /api/run response the benchmark checks.
type runReply struct {
	Records []service.RecordJSON `json:"records"`
	Done    bool                 `json:"done"`
}

// checkReply compares a decoded /api/run response with the reference.
func (w *webHTTP) checkReply(id int, status int, out *runReply) bool {
	if status != http.StatusOK || !out.Done || len(out.Records) != 1 {
		return false
	}
	rec := out.Records[0]
	return rec.Tags["id"] == id && w.t.check(id, rec.Fields["resp"], rec.Tags["status"])
}

// request makes one /api/run round trip over loopback and checks the reply.
func (w *webHTTP) request(id int, buf *[]byte, tr *tracer) bool {
	root := tr.begin("client.request", -1, id)
	defer tr.end(root)
	sp := tr.begin("client.encode", root, id)
	*buf = appendRunBody((*buf)[:0], id, w.t.url(id))
	tr.end(sp)
	sp = tr.begin("client.post", root, id)
	resp, err := w.client.Post(w.url, "application/json", bytes.NewReader(*buf))
	tr.end(sp)
	if err != nil {
		return false
	}
	sp = tr.begin("client.decode", root, id)
	var out runReply
	err = json.NewDecoder(resp.Body).Decode(&out)
	// Read to EOF so the connection goes back to the keep-alive pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.end(sp)
	return err == nil && w.checkReply(id, resp.StatusCode, &out)
}

func (w *webHTTP) slice(k, ops int) (int, []int64) {
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < w.conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				i := int(next.Add(1)) - 1
				if i >= ops {
					return
				}
				t0 := time.Now()
				if !w.request(k*ops+i, &buf, nil) {
					failed.Add(1)
				}
				w.lat[i] = int64(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	return int(failed.Load()), w.lat[:ops]
}

// planRun is the plan rung of the layer ladder: each request as a one-record
// Plan.RunAll, which is what one isolated session costs internal/core.
func (w *webHTTP) planRun(ops int, tr *tracer, opts ...snet.Option) planOut {
	opts = append([]snet.Option{snet.WithBuffer(snetdOptions.BufferSize)}, opts...)
	id := 0
	out := runAllCalls(w.p, ops,
		func() []*snet.Record { id++; return []*snet.Record{w.t.record(id - 1)} },
		func(out []*snet.Record, _ *snet.Stats) int {
			if len(out) == 1 {
				if got, ok := w.t.checkRecord(out[0]); ok && got == id-1 {
					return 0
				}
			}
			return 1
		}, nil, tr, opts...)
	out.statOps = 1
	return out
}

func (w *webHTTP) reference(ops int) { w.t.reference(ops) }
func (w *webHTTP) build() snet.Node  { return workloads.WebPipeNet() }
func (w *webHTTP) plan() *snet.Plan  { return w.p }

func (w *webHTTP) close() error {
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := w.srv.Shutdown(ctx)
	if serr := <-w.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	w.svc.Shutdown()
	if live := w.svc.SessionCount(); live != 0 {
		err = errors.Join(err, fmt.Errorf("%d sessions live after Service.Shutdown", live))
	}
	return err
}
