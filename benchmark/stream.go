package main

import (
	"context"
	"fmt"
	"time"

	"repro/snet"
)

// transitEvery is the sampling stride of the streaming workloads' transit
// time: the record whose id is a multiple of it is timed, the others only
// checked.
const transitEvery = 16

// pumpTimeout bounds one pump; it is far above any slice's length.
const pumpTimeout = 60 * time.Second

// streamer is the closed loop of the streaming workloads: one client sends
// SendBatch bursts of batchSize records into a running plan while it reads
// Out() concurrently, so the network's backpressure paces the sender.
type streamer struct {
	p *snet.Plan
	// record makes input record i of a slice; it carries <id>=i.
	record func(i int) *snet.Record
	// check compares an output with the reference and returns its id.
	check func(r *snet.Record) (id int, ok bool)

	h     *snet.Handle // the handle the measured slices share
	batch []*snet.Record
	sent  []int64 // per batch: when its SendBatch began, ns since the pump began
	lat   []int64 // per batch: how long its SendBatch took
	// transit holds, after a pump, the sampled records' time from the start
	// of the SendBatch that carried them to their arrival on Out().
	transit []int64
}

func newStreamer(p *snet.Plan, maxOps int, record func(int) *snet.Record,
	check func(*snet.Record) (int, bool)) *streamer {
	return &streamer{
		p: p, record: record, check: check,
		h:       p.Start(context.Background()),
		batch:   make([]*snet.Record, batchSize),
		sent:    make([]int64, (maxOps+batchSize-1)/batchSize),
		lat:     make([]int64, (maxOps+batchSize-1)/batchSize),
		transit: make([]int64, 0, maxOps/transitEvery+1),
	}
}

// pump streams ops records through h and waits for ops outputs.  The latency
// it returns is the producer's: how long each SendBatch call held it, which
// under the network's backpressure is the time the network took to accept
// the batch.  How long records then spend inside is kept in s.transit.
func (s *streamer) pump(h *snet.Handle, ops int, tr *tracer) (failed int, lat []int64) {
	t0 := time.Now()
	sendErr := make(chan error, 1)
	go func() {
		for b := 0; b < ops; b += batchSize {
			n := min(batchSize, ops-b)
			for j := 0; j < n; j++ {
				s.batch[j] = s.record(b + j)
			}
			began := int64(time.Since(t0))
			s.sent[b/batchSize] = began
			id := tr.begin("plan.send_batch", -1, b/batchSize)
			_, err := h.SendBatch(context.Background(), s.batch[:n])
			tr.end(id)
			s.lat[b/batchSize] = int64(time.Since(t0)) - began
			if err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	lat = s.lat[:(ops+batchSize-1)/batchSize]
	s.transit = s.transit[:0]
	drain := tr.begin("plan.drain", -1, 0)
	defer func() { tr.end(drain) }()
	sender := sendErr // nil once the sender has reported
	// A network that drops a record would leave this loop waiting for it;
	// the watchdog turns that into failed operations.
	watchdog := time.NewTimer(pumpTimeout)
	defer watchdog.Stop()
	for seen := 0; seen < ops; {
		select {
		case r, ok := <-h.Out():
			if !ok {
				// The run ended early; the sender sees the same and stops.
				if sender != nil {
					<-sender
				}
				return failed + ops - seen, lat
			}
			seen++
			id, good := s.check(r)
			if !good || id < 0 || id >= ops {
				failed++
				continue
			}
			if id%transitEvery == 0 {
				s.transit = append(s.transit, int64(time.Since(t0))-s.sent[id/batchSize])
			}
		case err := <-sender:
			sender = nil
			if err != nil {
				// The network refused input: what has not come back by now
				// never will.
				return failed + ops - seen, lat
			}
		case <-watchdog.C:
			h.Cancel()
			if sender != nil {
				<-sender
			}
			return failed + ops - seen, lat
		}
	}
	if sender != nil {
		<-sender
	}
	return failed, lat
}

func (s *streamer) slice(_, ops int) (int, []int64) { return s.pump(s.h, ops, nil) }

// planRun streams ops records through a run of its own, started with opts.
func (s *streamer) planRun(ops int, tr *tracer, opts ...snet.Option) planOut {
	id := tr.begin("plan.start", -1, 0)
	h := s.p.Start(context.Background(), opts...)
	tr.end(id)
	failed, _ := s.pump(h, ops, tr)
	id = tr.begin("plan.close_wait", -1, 0)
	failed += closeHandle(h)
	tr.end(id)
	return planOut{failed: failed, stats: h.Stats().Snapshot(), statOps: ops}
}

func (s *streamer) plan() *snet.Plan { return s.p }

func (s *streamer) lastTransit() []int64 { return s.transit }

func (s *streamer) close() error {
	if extra := closeHandle(s.h); extra > 0 {
		return fmt.Errorf("%d records left in the stream after the last slice", extra)
	}
	return s.h.Err()
}

// closeHandle ends a run's input, waits for the network to drain and returns
// how many stray records came out.
func closeHandle(h *snet.Handle) (stray int) {
	h.Close()
	for range h.Out() {
		stray++
	}
	h.Wait()
	return stray
}
