package core

import (
	"context"
	"fmt"
	"testing"
)

// The tests' one route from a Node to a running network.  A network has two
// execution plans: the un-fused blueprint — one goroutine and one stream per
// stage, the reference the fusion pass is checked against — and the fused
// default every production caller runs.  A test whose assertions are about
// what a network computes takes an execMode and is run under both through
// bothPlans; a test about the transport itself (goroutine, stream or frame
// counts) names the plan it measures with unfused or fused.

// execMode selects the execution plan a test runs its networks on.
type execMode struct{ fuse bool }

var (
	unfused = execMode{fuse: false}
	fused   = execMode{fuse: true}
)

func (m execMode) String() string { return fmt.Sprintf("fuse=%v", m.fuse) }

// bothPlans runs body once per execution plan, un-fused first.
func bothPlans(t *testing.T, body func(t *testing.T, m execMode)) {
	for _, m := range []execMode{unfused, fused} {
		t.Run(m.String(), func(t *testing.T) { body(t, m) })
	}
}

// Compile compiles a test network for the mode.  Type errors are tolerated:
// several tests run defective networks on purpose, and a plan with findings
// still runs.
func (m execMode) Compile(root Node) *Plan {
	p, _ := Compile(root, WithFusion(m.fuse))
	return p
}

func (m execMode) Start(ctx context.Context, root Node, opts ...Option) *Handle {
	return m.Compile(root).Start(ctx, opts...)
}

func (m execMode) RunAll(ctx context.Context, root Node, inputs []*Record, opts ...Option) ([]*Record, *Stats, error) {
	return m.Compile(root).RunAll(ctx, inputs, opts...)
}

func (m execMode) RunUntil(ctx context.Context, root Node, inputs []*Record, stop func(*Record) bool, opts ...Option) (*Record, *Stats, error) {
	return m.Compile(root).RunUntil(ctx, inputs, stop, opts...)
}

// runNet is RunAll failing the test on a run error.
func (m execMode) runNet(t *testing.T, n Node, inputs []*Record, opts ...Option) ([]*Record, *Stats) {
	t.Helper()
	out, stats, err := m.RunAll(context.Background(), n, inputs, opts...)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	return out, stats
}
