package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
)

// The tests' one route from a Node to a running network: its plan.  A test
// whose assertions are about what a network computes runs its body in two
// cells through eachCell.  The cells keep the subtest names the tests had
// when a network had two plans, so every test keeps its name.  The run the
// body asks its cell for (RunAll, RunUntil, runNet) is, in "fuse=true", the
// plan's one-shot run, which steps a root of stages and stepped sites on one
// goroutine; in "fuse=false", where the un-fused plan used to run the same
// root as a pipeline of parts, it is a started handle's run (started), whose
// root keeps its sites' dispatchers and merge queues, held afterwards to the
// sequential evaluator (eval_test.go).  A body that only starts handles
// (compileNet(n).Start) ignores its cell (_ cell) and runs alike in both.

// cell is one of a test's two cells; ref marks the started one, held to the
// evaluator.
type cell struct {
	t   testing.TB
	ref bool
}

func (c cell) String() string { return fmt.Sprintf("fuse=%v", !c.ref) }

// eachCell runs body in the reference cell, then in the plain one.
func eachCell(t *testing.T, body func(t *testing.T, c cell)) {
	for _, ref := range []bool{true, false} {
		t.Run(cell{ref: ref}.String(), func(t *testing.T) { body(t, cell{t: t, ref: ref}) })
	}
}

// compileNet compiles a test network.  Type errors are tolerated: several
// tests run defective networks on purpose, and a plan with findings still
// runs.
func compileNet(root Node) *Plan {
	p, _ := Compile(root)
	return p
}

func (c cell) RunAll(ctx context.Context, root Node, inputs []*Record, opts ...Option) ([]*Record, *Stats, error) {
	p, in := compileNet(root), c.keep(inputs)
	var out []*Record
	_, stats, err := c.until(ctx, p, inputs, func(r *Record) bool { out = append(out, r); return false }, opts)
	if c.ref && err == nil {
		evaluate(p, in, opts...).check(c.t, out)
	}
	return out, stats, err
}

// RunUntil holds the record the run stopped at, if any, to the evaluation:
// it must be one of the records the reference emits, where the evaluation
// fixes them.
func (c cell) RunUntil(ctx context.Context, root Node, inputs []*Record, stop func(*Record) bool, opts ...Option) (*Record, *Stats, error) {
	p, in := compileNet(root), c.keep(inputs)
	rec, stats, err := c.until(ctx, p, inputs, stop, opts)
	if c.ref && err == nil && rec != nil {
		want, got := evaluate(p, in, opts...), evalRender(rec)
		emitted := slices.ContainsFunc(want.out, func(r *Record) bool { return evalRender(r) == got })
		if !emitted && want.opaque == "" && len(want.loose) == 0 {
			c.t.Errorf("the run stopped at %s, which the reference evaluator never emits", got)
		}
	}
	return rec, stats, err
}

// until is the cell's run of p: its one-shot run, or in the reference cell a
// started one.
func (c cell) until(ctx context.Context, p *Plan, inputs []*Record, stop func(*Record) bool, opts []Option) (*Record, *Stats, error) {
	if c.ref {
		return started(ctx, p, inputs, stop, opts)
	}
	return p.RunUntil(ctx, inputs, stop, opts...)
}

// started is RunUntil on a started handle: the root runs as Plan.Start runs
// it, its spine sites on dispatchers of their own, fed inputs by a goroutine.
// Inputs the run refuses and outputs after the one stop holds for go back to
// the arena, as RunUntil's do.
func started(ctx context.Context, p *Plan, inputs []*Record, stop func(*Record) bool, opts []Option) (*Record, *Stats, error) {
	h := p.Start(ctx, opts...)
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for i, r := range inputs {
			if h.Send(r) != nil {
				for _, rest := range inputs[i:] {
					releaseRecord(rest)
				}
				return
			}
		}
		h.Close()
	}()
	var hit *Record
	for r := range h.Out() {
		switch {
		case hit != nil:
			releaseRecord(r)
		case stop(r):
			hit = r
			h.Cancel()
		}
	}
	h.Wait()
	<-fed
	if hit != nil {
		return hit, h.Stats(), nil
	}
	return nil, h.Stats(), ctx.Err()
}

// keep copies the inputs the reference cell evaluates after the run: the run
// owns the records it is given and may recycle them.
func (c cell) keep(inputs []*Record) []*Record {
	if !c.ref {
		return nil
	}
	in := make([]*Record, len(inputs))
	for i, r := range inputs {
		in[i] = r.Copy()
	}
	return in
}

// runNet is RunAll failing the test on a run error.
func (c cell) runNet(t *testing.T, n Node, inputs []*Record, opts ...Option) ([]*Record, *Stats) {
	t.Helper()
	out, stats, err := c.RunAll(context.Background(), n, inputs, opts...)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	return out, stats
}

// runNet runs a test network's plan once, failing the test on a run error.
func runNet(t *testing.T, n Node, inputs []*Record, opts ...Option) ([]*Record, *Stats) {
	t.Helper()
	return cell{t: t}.runNet(t, n, inputs, opts...)
}
