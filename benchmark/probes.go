package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/workloads"
	"repro/sac"
	"repro/snet"
	"repro/snet/lang"
	"repro/snet/service"
	"repro/sudoku"
)

// The probes measure single layers on fixed small inputs of their own, so
// they do not depend on the traced workload: an invocation runs them once
// (runTraced) and every traced run in it reports their values, because a
// traced run reports every per-layer metric of BENCHMARK.json.  README.md
// says which end-to-end metric on which workload each one is expected to move.

// probeFusion prices the fusion pass and the stage kinds it fuses
// (internal/core: fuse.go, filter programs) on chains of chainDepth stages.
func probeFusion(c *traced) (err error) {
	m, n := c.m, c.n(20000)
	start := chainInputs(c.seed, n)
	inputs := make([]*snet.Record, n)
	for i := range inputs {
		inputs[i] = snet.NewRecord().SetTag("n", start[i]).SetTag("id", i)
	}
	// nsPerRecord streams the inputs through a chain and checks the outputs.
	nsPerRecord := func(depth int, stage func(int) stageKind, fuse bool, opts ...snet.Option) float64 {
		p, cerr := snet.Compile(chainNet(depth, stage), snet.WithFusion(fuse))
		if cerr != nil {
			err = errors.Join(err, cerr)
			return 0
		}
		d := timeMedian(5, func() {
			out, _, rerr := p.RunAll(context.Background(), inputs, opts...)
			if rerr != nil || len(out) != n {
				c.add(n, n)
				return
			}
			for _, r := range out {
				id, _ := r.Tag("id")
				got, _ := r.Tag("n")
				c.count(id >= 0 && id < n && got == chainReference(start[id], depth, stage))
			}
		})
		return float64(d) / float64(n)
	}
	only := func(kind stageKind) func(int) stageKind { return func(int) stageKind { return kind } }

	m.set("core.fuse.fused_ns_per_record", nsPerRecord(chainDepth, chainStage, true))
	m.set("core.fuse.unfused_ns_per_record", nsPerRecord(chainDepth, chainStage, false))
	// An empty plan is one tap: the two boundary streams and nothing else.
	empty := nsPerRecord(1, only(tapStage), true)
	for kind, name := range map[stageKind]string{tapStage: "tap", filterStage: "filter", boxStage: "box"} {
		m.set("core.fuse."+name+"_ns_per_stage", (nsPerRecord(chainDepth, only(kind), true)-empty)/chainDepth)
	}
	// The recorded regression: a fused chain of sequential boxes at B=8
	// against the same chain stage-per-goroutine (fused throughput over
	// un-fused, 0.76 when last written down).
	b8 := snet.WithStreamBatch(8)
	m.set("core.fuse.boxchain_b8_ratio",
		nsPerRecord(chainDepth, only(boxStage), false, b8)/nsPerRecord(chainDepth, only(boxStage), true, b8))
	return err
}

// probeService is the webpipe layer ladder: the same requests replayed from
// one client at every boundary between the sequential reference and real
// loopback HTTP, each replay with spans around the public calls it makes.
// A rung's self time is its time minus the time of the rung below it.
// net/http is also priced on its own, against a handler that does nothing, so
// that the self times can be added up without the loopback rung and compared
// with it.
func probeService(c *traced) (err error) {
	m, count, ops := c.m, c.count, c.n(2000)
	w, err := newWebHTTP(newWebTraffic(c.seed, ops))
	if err != nil {
		return err
	}
	shared := service.New()
	sharedOpts := snetdOptions
	sharedOpts.SessionMode = service.Shared
	shared.Register("webpipe", "request/response workload", sharedOpts,
		func(service.Options) (snet.Node, error) { return workloads.WebPipeNet(), nil }, nil)
	pt := newTracer()
	defer func() {
		shared.Shutdown()
		err = errors.Join(err, w.close())
		c.tr.absorb(pt)
	}()
	ctx := context.Background()
	var buf []byte

	// Loopback from one client: untimed to warm up, then by turns untraced,
	// for the end-to-end figure the rungs must add up to, and traced, so
	// that both see the same machine.
	for i := 0; i < ops/4; i++ {
		count(w.request(i, &buf, nil))
	}
	var untraced []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			count(w.request(i, &buf, nil))
		}
		untraced = append(untraced, float64(time.Since(t0)))
		for i := 0; i < ops; i++ {
			count(w.request(i, &buf, pt))
		}
	}
	loopback := usPerOp(time.Duration(median(untraced)), ops)

	// The handler in process, through httptest.NewRecorder: the service
	// without the network stack.
	handler := w.svc.Handler()
	var canned []byte // the reply to request 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < ops; i++ {
		buf = appendRunBody(buf[:0], i, w.t.url(i))
		req := httptest.NewRequest(http.MethodPost, "/api/run", bytes.NewReader(buf))
		rec := httptest.NewRecorder()
		sp := pt.begin("service.handler", -1, i)
		handler.ServeHTTP(rec, req)
		pt.end(sp)
		if i == 0 {
			canned = bytes.Clone(rec.Body.Bytes())
		}
		var out runReply
		derr := json.NewDecoder(rec.Body).Decode(&out)
		count(derr == nil && w.checkReply(i, rec.Code, &out))
	}
	runtime.ReadMemStats(&m1)

	// net/http alone: the same requests from the same client over loopback to
	// a handler that reads the body and writes a canned reply.
	echo := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		rw.Header().Set("Content-Type", "application/json")
		_, _ = rw.Write(canned)
	}))
	for i := 0; i < ops+ops/4; i++ { // the first quarter warms the connection up
		rungs := pt
		if i < ops/4 {
			rungs = nil
		}
		sp := rungs.begin("net.http.echo", -1, i)
		buf = appendRunBody(buf[:0], i, w.t.url(i))
		resp, perr := w.client.Post(echo.URL, "application/json", bytes.NewReader(buf))
		var out runReply
		if perr == nil {
			perr = json.NewDecoder(resp.Body).Decode(&out)
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		rungs.end(sp)
		count(perr == nil && w.checkReply(0, resp.StatusCode, &out))
	}
	echo.Close()

	// One session per request, as the handler does it; isolated (an
	// instance per session), then over the warm shared engine.
	oneShot := func(svc *service.Service, name string, i int) bool {
		root := pt.begin(name, -1, i)
		defer pt.end(root)
		sp := pt.begin(name+".open", root, i)
		sess, oerr := svc.Open("webpipe")
		pt.end(sp)
		if oerr != nil {
			return false
		}
		sp = pt.begin(name+".send", root, i)
		serr := sess.Send(ctx, w.t.record(i))
		sess.CloseInput()
		pt.end(sp)
		sp = pt.begin(name+".drain", root, i)
		recs, done, derr := sess.Drain(ctx, 0)
		pt.end(sp)
		sp = pt.begin(name+".release", root, i)
		sess.Release()
		pt.end(sp)
		if serr != nil || derr != nil || !done || len(recs) != 1 {
			return false
		}
		id, ok := w.t.checkRecord(recs[0])
		return ok && id == i
	}
	count(oneShot(shared, "warm", 0)) // the one instantiation the engine amortizes
	for i := 0; i < ops; i++ {
		count(oneShot(w.svc, "service.session", i))
	}
	for i := 0; i < ops; i++ {
		count(oneShot(shared, "service.engine", i))
	}

	// One session streaming many records: what the service adds per record
	// when the session is not re-opened for each.
	streamed := c.n(32) * batchSize
	stream := func(svc *service.Service) float64 {
		t0 := time.Now()
		sess, oerr := svc.Open("webpipe")
		if oerr != nil {
			c.add(streamed, streamed)
			return 0
		}
		fed := make(chan error, 1)
		go func() {
			batch := make([]*snet.Record, batchSize)
			for b := 0; b < streamed; b += batchSize {
				for j := range batch {
					batch[j] = w.t.record(b + j)
				}
				if _, serr := sess.SendBatch(ctx, batch); serr != nil {
					fed <- serr
					return
				}
			}
			sess.CloseInput()
			fed <- nil
		}()
		dctx, cancel := context.WithTimeout(ctx, pumpTimeout)
		recs, _, derr := sess.Drain(dctx, 0)
		cancel()
		sess.Release()
		d := time.Since(t0)
		good := 0
		if derr == nil && <-fed == nil {
			for _, r := range recs {
				if _, ok := w.t.checkRecord(r); ok {
					good++
				}
			}
		}
		c.add(streamed, streamed-min(good, streamed))
		return usPerOp(d, streamed)
	}
	m.set("service.session.us_per_record", stream(w.svc))
	m.set("service.engine.us_per_record", stream(shared))

	// Every shared session is released: the engine's replica gauge must
	// drain to zero.
	const gauge = "run.webpipe.split.session_mux.replicas"
	for deadline := time.Now().Add(5 * time.Second); shared.Stats()[gauge] != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	replicas := shared.Stats()[gauge]
	m.set("service.engine.replicas_after", float64(replicas))
	if replicas != 0 {
		err = errors.Join(err, fmt.Errorf("%d session replicas live in the shared engine after every Release", replicas))
	}

	// The JSON codec on the same records, the plan rung and the reference.
	codec := service.GenericCodec{}
	for i := 0; i < ops; i++ {
		wire := service.RecordJSON{Tags: map[string]int{"id": i}, Fields: map[string]string{"url": w.t.url(i)}}
		sp := pt.begin("service.codec.decode", -1, i)
		rec, derr := codec.Decode(wire)
		pt.end(sp)
		count(derr == nil)
		resp, status := workloads.WebPipeReference(w.t.url(i))
		rec.SetField("resp", resp).SetTag("status", status).DeleteField("url")
		sp = pt.begin("service.codec.encode", -1, i)
		back := codec.Encode(rec)
		pt.end(sp)
		count(w.t.check(i, back.Fields["resp"], back.Tags["status"]))
		snet.ReleaseRecord(rec)
	}
	c.add(ops, w.planRun(ops, pt).failed)
	for i := 0; i < ops; i++ {
		sp := pt.begin("boxes.reference", -1, i)
		resp, status := workloads.WebPipeReference(w.t.url(i))
		pt.end(sp)
		count(w.t.check(i, resp, status))
	}

	total, _ := spanTotals(pt.snapshot())
	per := func(name string) float64 { return float64(total[name]) / 1e3 / float64(ops) }
	for _, part := range []string{"open", "send", "drain", "release"} {
		m.set("service.session."+part+"_us", per("service.session."+part))
	}
	plan, session := per("plan.run_all"), per("service.session")
	decode, encode := per("service.codec.decode"), per("service.codec.encode")
	handlerUs, client, echoUs := per("service.handler"), per("client.request")/reps, per("net.http.echo")
	m.set("service.session.us_per_op", session)
	m.set("service.session.self_us_per_op", session-plan)
	m.set("service.engine.open_us", per("service.engine.open"))
	m.set("service.engine.us_per_op", per("service.engine"))
	m.set("service.codec.decode_us", decode)
	m.set("service.codec.encode_us", encode)
	m.set("service.http.us_per_op", handlerUs)
	m.set("service.http.self_us_per_op", handlerUs-session-decode-encode)
	m.set("service.http.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	m.set("net.loopback.us_per_op", loopback)
	m.set("net.loopback.self_us_per_op", client-handlerUs)
	m.set("net.http.echo_us_per_op", echoUs)
	// Do the rungs account for what a client of the real server waits for?
	// Every term below comes from a replay of its own and none is a
	// difference against the loopback rung, so the sum does not telescope to
	// it: the plan's run, the session calls around it (its drain is the wait
	// for that run), the codec, what the handler adds to both, and net/http
	// as the echo server prices it.
	sum := plan + per("service.session.open") + per("service.session.send") + per("service.session.release") +
		decode + encode + (handlerUs - session - decode - encode) + echoUs
	m.set("ladder.sum_over_e2e", sum/loopback)
	return err
}

// probeArrays prices the data-parallel layer (internal/sched, internal/array)
// on the stencil workload's with-loops, and the two levels of parallelism —
// box workers W and pool width P — against each other.
func probeArrays(c *traced) error {
	m := c.m
	s, err := newStencil(c.seed, 1)
	if err != nil {
		return err
	}
	nproc := runtime.GOMAXPROCS(0)
	pools := map[string]*sac.Pool{"p1": seqPool, "pn": sac.NewPool(nproc)}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	smoothed := smooth(seqPool, s.grids[0])
	for name, pool := range pools {
		m.set("array.stencil_ms_"+name, ms(timeMedian(7, func() { smooth(pool, s.grids[0]) })))
		m.set("array.fold_ms_"+name, ms(timeMedian(7, func() { sink = int(energy(pool, smoothed)) })))
	}
	m.set("sched.speedup_pn", m.get("array.stencil_ms_p1")/m.get("array.stencil_ms_pn"))

	calls := c.n(2)
	for wname, workers := range map[string]int{"w1": 1, "wn": nproc} {
		for pname, pool := range pools {
			p, cerr := snet.Compile(stencilNet(pool))
			if cerr != nil {
				return cerr
			}
			t0 := time.Now()
			out := runAllCalls(p, calls, s.inputs, s.check, nil, nil, snet.WithBoxWorkers(workers))
			m.set("twolevel."+wname+"_"+pname+"_ops_per_s", float64(calls*stencilCall)/time.Since(t0).Seconds())
			c.add(calls*stencilCall, out.failed)
		}
	}
	return nil
}

// probeSudoku prices the paper's three solver networks against the
// sequential solver on the same puzzles (internal/sudoku), and the
// interpreted boxes against the native ones (internal/sacvm).
func probeSudoku(c *traced) error {
	m, n := c.m, 16
	s, err := newSearch(c.seed, n, 1)
	if err != nil {
		return err
	}
	msPer := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(n) }

	m.set("sudoku.seq_ms_per_puzzle", msPer(timeMedian(reps, func() { s.reference(n) })))
	for name, net := range map[string]snet.Node{
		"fig1": sudoku.Fig1Net(sudoku.NetConfig{}),
		"fig2": sudoku.Fig2Net(sudoku.NetConfig{}),
		"fig3": s.build(),
	} {
		p, cerr := snet.Compile(net)
		if cerr != nil {
			return cerr
		}
		var out planOut
		d := timeMedian(reps, func() {
			out = runAllCalls(p, 1, s.inputs, s.solved, nil, nil)
			c.add(n, out.failed)
		})
		m.set("sudoku."+name+"_ms_per_puzzle", msPer(d))
		if name == "fig3" {
			m.set("sudoku.box_calls_per_puzzle", float64(sumKeys(out.stats, "box.", ".calls"))/float64(n))
		}
	}

	// One puzzle through Fig. 1 with native boxes and with the same boxes
	// interpreted from their SaC source.
	puzzle := sudoku.Easy()
	var native, interpreted *sudoku.Board
	nativeTime := timeMedian(reps, func() {
		native, _, err = sudoku.SolveWithNet(context.Background(), sudoku.Fig1Net(sudoku.NetConfig{}), puzzle)
	})
	if err != nil {
		return err
	}
	boxes := sudoku.NewSacBoxes(seqPool)
	t0 := time.Now()
	interpreted, _, err = boxes.SolveHybrid(context.Background(), puzzle)
	interpTime := time.Since(t0)
	if err != nil {
		return err
	}
	c.count(native != nil && interpreted != nil && interpreted.Equal(native) && native.Equal(sudoku.EasySolution()))
	m.set("sacvm.interp_over_native", float64(interpTime)/float64(nativeTime))
	return nil
}

// webpipeSnet is the webpipe net in the textual language (the program of
// examples/webpipe/webpipe.snet).
const webpipeSnet = `
box classify (url, <id>) -> (api, <id>) | (page, <id>) | (asset, <id>);
box api (api, <id>) -> (body, <id>, <status>);
box page (page, <id>) -> (body, <id>, <status>);
box asset (asset, <id>) -> (body, <id>, <status>);
box render (body, <id>, <status>) -> (resp, <id>, <status>);

net webpipe connect classify .. (api || page || asset) .. render;
`

// probeLang prices the textual front end (snet/lang) on the set-up path:
// parse the webpipe program, bind its boxes and compile the net.
func probeLang(c *traced) (err error) {
	reg := lang.NewRegistry()
	for name, box := range workloads.WebPipeBoxes() {
		reg.RegisterNode(name, box)
	}
	c.m.set("lang.parse_build_ms", float64(timeMedian(5, func() {
		prog, perr := lang.Parse(webpipeSnet)
		if perr != nil {
			err = perr
			return
		}
		if _, cerr := lang.CompileNet(prog, "webpipe", reg); cerr != nil {
			err = cerr
		}
	}))/1e6)
	return err
}
