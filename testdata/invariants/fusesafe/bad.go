// Seeded fusesafe violations: a stage loop regrowing per-stage concurrency
// and steps parking in-flight records in fields that outlive them.
package core

type Record struct{ n int }

type prog struct{}

func (prog) apply(rec *Record, dst []*Record) ([]*Record, error) { return append(dst[:0], rec), nil }

type segmentRun struct {
	stash  *Record
	parked []*Record
	outs   []*Record
	feed   chan *Record
	em     struct{ src *Record }
}

func (x *segmentRun) push(i int, rec *Record) bool { return rec != nil }

// feedBad is in scope by receiver.
func (x *segmentRun) feedBad(rec *Record) {
	x.stash = rec // want: retained in field stash
	go func() {   // want: go statement
		x.feed <- rec
	}()
	hold := make(chan *Record, 1) // want: channel plumbing
	_ = hold
}

type badStage struct{ last *Record }

// step is in scope by name, whatever the receiver.
func (s *badStage) step(x *segmentRun, i int, rec *Record) (*Record, bool) {
	outs, _ := prog{}.apply(rec, x.outs)
	for _, o := range outs {
		x.parked = append(x.parked, o) // want: retained in field parked
	}
	first := outs[0]
	s.last = first // want: retained in field last
	return nil, true
}

type goodStage struct{}

func (goodStage) step(x *segmentRun, i int, rec *Record) (*Record, bool) {
	// The sanctioned idioms of the real stages must stay clean: the Emitter
	// src slot set and cleared around an invocation, the output backing kept
	// without its records, every output handed on.
	x.em.src = rec
	outs, _ := prog{}.apply(rec, x.outs)
	x.outs = outs[:0]
	for _, o := range outs {
		if !x.push(i+1, o) {
			return nil, false
		}
	}
	x.em.src = nil
	return nil, true
}

// plainPump is outside the scope: a plain function, not a step method or a
// method of a segment* type, may build channels.
func plainPump() chan *Record { return make(chan *Record, 4) }

// stepwise is a plain function, not a step method: out of scope.
func stepwise(x *segmentRun, rec *Record) { x.stash = rec }
