package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/snet"
)

// Handler returns the HTTP/JSON binding of the service — the snetd wire
// protocol.  Every endpoint is JSON in, JSON out:
//
//	GET    /api/healthz                  liveness probe
//	GET    /api/networks                 registered networks + live session counts
//	GET    /api/stats                    flat counter snapshot (see Service.Stats)
//	POST   /api/sessions                 {"net":"fig1"} → {"session":"s1"}
//	POST   /api/sessions/{id}/records    {"records":[...],"close":true} → {"accepted":n}
//	GET    /api/sessions/{id}/results    ?max=16&wait=5s → {"records":[...],"done":b}
//	POST   /api/sessions/{id}/close      end-of-input
//	DELETE /api/sessions/{id}            release the session
//	POST   /api/run                      one-shot: feed, drain (Isolated: a run, no session)
//
// Feeding blocks on the bounded stream buffers: a client that outruns its
// network instance is throttled by its own HTTP request — S-Net
// backpressure surfacing as flow control on the wire.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "uptime": s.Uptime().String()})
	})
	mux.HandleFunc("GET /api/networks", s.handleNetworks)
	mux.HandleFunc("GET /api/stats", s.handleStats)
	mux.HandleFunc("POST /api/sessions", s.handleOpen)
	mux.HandleFunc("POST /api/sessions/{id}/records", s.handleRecords)
	mux.HandleFunc("GET /api/sessions/{id}/results", s.handleResults)
	mux.HandleFunc("POST /api/sessions/{id}/close", s.handleClose)
	mux.HandleFunc("DELETE /api/sessions/{id}", s.handleRelease)
	mux.HandleFunc("POST /api/run", s.handleRun)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errStatus maps service errors onto HTTP statuses: the session cap is
// 429 (back off and retry), unknown names are 404, sending after close is a
// 409 conflict with the session's own state, a body over maxBody is 413,
// everything else 400.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrSessionLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownNetwork), errors.Is(err, ErrUnknownSession):
		return http.StatusNotFound
	case errors.Is(err, ErrShutdown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBuild):
		return http.StatusInternalServerError // server-side configuration fault
	case errors.Is(err, snet.ErrClosed):
		return http.StatusConflict // send after close-of-input
	case errors.Is(err, snet.ErrCancelled):
		return http.StatusGone // session released / run cancelled
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, errStatus(err), map[string]string{"error": err.Error()})
}

func (s *Service) handleNetworks(w http.ResponseWriter, r *http.Request) {
	type netInfo struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		SessionMode string `json:"sessionMode"`
		BufferSize  int    `json:"bufferSize"`
		MaxSessions int    `json:"maxSessions"`
		Active      int    `json:"activeSessions"`
		EngineWarm  bool   `json:"engineWarm,omitempty"`
		// Compile-phase artifacts: the network's inferred type signature,
		// its typed topology (snet.Plan.Topology), and the number of
		// definite type errors the compile found (0 for a clean plan).
		Type       string         `json:"type,omitempty"`
		Topology   *snet.Topology `json:"topology,omitempty"`
		TypeErrors int            `json:"typeErrors,omitempty"`
		BuildError string         `json:"buildError,omitempty"`
		// Verifier artifacts (internal/analysis under default caps): the
		// headline deadlock verdict, the static memory high-water bound in
		// records (absent when occupancy is unbounded), and the number of
		// analysis findings.
		DeadlockFree *bool `json:"deadlockFree,omitempty"`
		MemoryBound  int64 `json:"memoryBound,omitempty"`
		Findings     int   `json:"findings,omitempty"`
	}
	var out []netInfo
	for _, n := range s.Networks() {
		n.mu.Lock()
		active := n.active
		n.mu.Unlock()
		info := netInfo{
			Name:        n.name,
			Description: n.descr,
			SessionMode: n.opts.SessionMode.String(),
			BufferSize:  n.opts.BufferSize,
			MaxSessions: n.opts.maxSessions(),
			Active:      active,
			EngineWarm:  n.liveEngine() != nil,
		}
		if plan, err := n.Plan(); err != nil {
			info.BuildError = err.Error()
		} else {
			info.Type = fmt.Sprintf("%v -> %v", plan.In(), plan.Out())
			info.Topology = plan.Topology()
			info.TypeErrors = len(plan.TypeErrors())
			if rep := n.Verify(); rep != nil {
				free := rep.DeadlockFree()
				info.DeadlockFree = &free
				info.Findings = len(rep.Findings)
				if rep.Bound != nil && rep.Bound.Finite {
					info.MemoryBound = rep.Bound.Total
				}
			}
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"networks": out})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleOpen(w http.ResponseWriter, r *http.Request) {
	req, err := readBody(w, r, memNet, func() any { return new(openBody) })
	if err != nil {
		writeError(w, err)
		return
	}
	sess, err := s.Open(req.net)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"session": sess.ID(), "net": req.net})
}

func (s *Service) sessionFromPath(w http.ResponseWriter, r *http.Request) *Session {
	sess, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return nil
	}
	return sess
}

// releaseRecords returns decoded records the network did not take to the
// arena the codec drew them from.
func releaseRecords(recs []*snet.Record) {
	for _, r := range recs {
		snet.ReleaseRecord(r)
	}
}

func (s *Service) handleRecords(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFromPath(w, r)
	if sess == nil {
		return
	}
	req, err := readBody(w, r, memRecords|memClose, func() any { return new(recordsBody) })
	if err != nil {
		writeError(w, err)
		return
	}
	recs, err := req.inputs(sess.Network().Codec())
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			map[string]any{"error": err.Error(), "accepted": 0})
		return
	}
	// The whole request body enters the network as transport frames — one
	// stream synchronization per StreamBatch records.
	accepted, err := sess.SendBatch(r.Context(), recs)
	releaseRecords(recs[accepted:])
	if err != nil {
		// report how many records entered the network so a retrying
		// client knows where the batch stopped
		writeJSON(w, errStatus(err),
			map[string]any{"error": err.Error(), "accepted": accepted})
		return
	}
	if req.close {
		sess.CloseInput()
	}
	writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted})
}

// maxWait caps client-supplied wait durations so a request cannot pin its
// handler (and, for /api/run, a session slot) indefinitely.
const maxWait = 10 * time.Minute

// parseWait reads a Go duration ("" selects the 30s default), capped at
// maxWait.
func parseWait(v string) (time.Duration, error) {
	wait := 30 * time.Second
	if v != "" {
		var err error
		if wait, err = time.ParseDuration(v); err != nil {
			return 0, fmt.Errorf("bad wait: %w", err)
		}
	}
	return min(wait, maxWait), nil
}

// resultParams reads ?max= and ?wait= for a drain request.
func resultParams(r *http.Request) (max int, wait time.Duration, err error) {
	if v := r.URL.Query().Get("max"); v != "" {
		if max, err = strconv.Atoi(v); err != nil {
			return 0, 0, fmt.Errorf("bad max: %w", err)
		}
	}
	wait, err = parseWait(r.URL.Query().Get("wait"))
	if err != nil {
		return 0, 0, err
	}
	return max, wait, nil
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFromPath(w, r)
	if sess == nil {
		return
	}
	max, wait, err := resultParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	// Delivery is at-most-once (see Session.Drain): whatever was collected
	// before a deadline or disconnect is returned — never discarded, since
	// it has already been consumed from the stream.
	recs, done, err := sess.Drain(ctx, max)
	if err != nil && len(recs) == 0 && !errors.Is(err, context.DeadlineExceeded) {
		writeError(w, err)
		return
	}
	writeRecords(w, strconv.AppendBool([]byte(`{"done":`), done), sess.Network().Codec(), recs)
}

// writeRecords replies 200 with the JSON object whose members before
// "records" head holds, then the records' wire forms: the bytes json.Encoder
// writes for the map of the same members.
func writeRecords(w http.ResponseWriter, head []byte, codec Codec, recs []*snet.Record) {
	b := append(appendRecords(append(head, `,"records":`...), codec, recs), '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Service) handleClose(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFromPath(w, r)
	if sess == nil {
		return
	}
	sess.CloseInput()
	writeJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

func (s *Service) handleRelease(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFromPath(w, r)
	if sess == nil {
		return
	}
	sess.Release()
	writeJSON(w, http.StatusOK, map[string]bool{"released": true})
}

// handleRun is the one-shot convenience, counted under the service's
// per-network latency counters: feed the records, drain until the network
// winds down (or max records / wait elapsed).  On an Isolated network it is a
// run of the plan (Plan.RunUntil) in a session slot, on a Shared one a session.
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := readBody(w, r, memNet|memRecords|memMax|memWait, func() any { return new(runBody) })
	if err != nil {
		writeError(w, err)
		return
	}
	wait, err := parseWait(req.wait)
	start := time.Now()
	var n *Network
	var sess *Session
	var plan *snet.Plan
	var runStats *snet.Stats
	if err == nil {
		n, err = s.Network(req.net)
	}
	if err == nil && n.opts.SessionMode == Shared {
		if sess, err = s.Open(req.net); err == nil {
			defer sess.Release()
		}
	} else if err == nil { // a slot, refused once the service is down as Open is
		s.mu.Lock()
		if err = ErrShutdown; !s.down {
			err = n.acquire()
		}
		s.mu.Unlock()
		if err == nil {
			if plan, err = n.Plan(); err != nil {
				err = n.buildFailed(err)
			} else {
				defer func() { n.release(start, runStats) }()
			}
		}
	}
	if err != nil {
		releaseRecords(req.records)
		writeError(w, err)
		return
	}
	inputs, err := req.inputs(n.codec)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(s.runs, wait) // what Shutdown cancels
	defer cancel()
	defer context.AfterFunc(r.Context(), cancel)()
	var recs []*snet.Record
	var accepted int
	var done bool
	var feedErr error
	if sess == nil {
		if feedErr = n.admit(inputs); feedErr != nil {
			releaseRecords(inputs)
		} else {
			var hit *snet.Record
			hit, runStats, err = plan.RunUntil(ctx, inputs, func(rec *snet.Record) bool {
				recs = append(recs, rec)
				return len(recs) == req.max
			}, n.runOpts...)
			accepted, done = len(inputs)-int(runStats.Counter("input.untaken")), hit == nil && err == nil
			if accepted > 0 {
				n.svcStat.Add("records.in", int64(accepted))
			}
			if len(recs) > 0 {
				n.svcStat.Add("records.out", int64(len(recs)))
			}
		}
	} else {
		fed := make(chan error, 1)
		go func() {
			_, err := sess.SendBatch(ctx, inputs)
			if err == nil {
				sess.CloseInput()
			} else if ctx.Err() == nil {
				cancel() // nothing is left to drain for
			}
			fed <- err
		}()
		recs, done, err = sess.Drain(ctx, req.max)
		cancel() // unblock the feeder if the drain stopped at max or deadline
		feedErr = <-fed
		sent, _ := sess.Counts()
		accepted = int(sent)
		releaseRecords(inputs[accepted:])
	}
	if feedErr != nil && !errors.Is(feedErr, context.DeadlineExceeded) && !errors.Is(feedErr, context.Canceled) {
		// A record refused, the session released: answered as POST .../records is.
		writeJSON(w, errStatus(feedErr), map[string]any{"error": feedErr.Error(), "accepted": accepted})
		return
	}
	if errors.Is(err, context.Canceled) {
		err = context.Cause(ctx) // ErrShutdown, if Shutdown cut the run
	}
	if err != nil && len(recs) == 0 && !errors.Is(err, context.DeadlineExceeded) {
		writeError(w, err)
		return
	}
	elapsed := time.Since(start)
	n.svcStat.Add("run.count", 1)
	n.svcStat.Add("latency.run_ns", elapsed.Nanoseconds())
	n.svcStat.SetMax("latency.run_ns", elapsed.Nanoseconds())

	// accepted/inputDone show a partially fed run (the wait elapsed, or max
	// was reached, first).  The elapsed time is far from where encoding/json
	// writes a float with an exponent.
	head := strconv.AppendInt(append(make([]byte, 0, 512), `{"accepted":`...), int64(accepted), 10)
	head = strconv.AppendBool(append(head, `,"done":`...), done)
	head = strconv.AppendBool(append(head, `,"inputDone":`...), accepted == len(inputs))
	head = strconv.AppendFloat(append(head, `,"ms":`...), float64(elapsed.Microseconds())/1000.0, 'f', -1, 64)
	writeRecords(w, head, n.codec, recs)
}
