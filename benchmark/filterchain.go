package main

import (
	"fmt"
	"math/rand"

	"repro/snet"
)

var filterChain = &workload{
	name: "filter_chain",
	why: "16 serial stages (filters, taps, sequential boxes) compiled to one fused segment: fuse.go, filter " +
		"programs, record plane and arena dominate; box engine, combinators and service do nothing",
	op:       "record",
	callOps:  batchSize,
	sliceOps: 110592,
	traceOps: 65536,
	setup: func(seed int64, maxOps int) (instance, error) {
		c := &chain{start: chainInputs(seed, maxOps)}
		c.want = make([]int, len(c.start))
		for i, n := range c.start {
			c.want[i] = chainReference(n, chainDepth, chainStage)
		}
		p, err := snet.Compile(c.build())
		if err != nil {
			return nil, err
		}
		c.streamer = newStreamer(p, maxOps,
			func(i int) *snet.Record {
				return snet.AcquireRecord().SetTag("n", c.start[i]).SetTag("id", i)
			},
			func(r *snet.Record) (int, bool) {
				id, ok := r.Tag("id")
				n, _ := r.Tag("n")
				return id, ok && id >= 0 && id < len(c.want) && n == c.want[id]
			})
		return c, nil
	},
}

const (
	chainDepth = 16
	chainMod   = 1000003
)

// chain is the filter_chain workload: records {<n>, <id>} run through
// chainDepth stages, each of which rewrites <n> or just looks at it.
type chain struct {
	start []int // <n> of input record i
	want  []int // <n> of its output, by the sequential reference
	*streamer
}

func chainInputs(seed int64, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	start := make([]int, n)
	for i := range start {
		start[i] = rng.Intn(chainMod)
	}
	return start
}

// stageKind is what one stage of a chain does to <n>.
type stageKind int

const (
	tapStage    stageKind = iota // an Observe tap: looks, changes nothing
	filterStage                  // a tag-arithmetic filter
	boxStage                     // a box pinned to sequential invocation
)

// chainStage says what stage i of the chain is: filters, taps and boxes
// interleaved.
func chainStage(i int) stageKind { return [...]stageKind{filterStage, tapStage, boxStage}[i%3] }

// chainReference is the sequential reference: <n> after depth stages of the
// kinds stage names.
func chainReference(n, depth int, stage func(i int) stageKind) int {
	for i := 0; i < depth; i++ {
		switch stage(i) {
		case filterStage:
			n = (n*3 + i) % chainMod
		case boxStage:
			n = (n + 2*i + 1) % chainMod
		}
	}
	return n
}

func (c *chain) build() snet.Node { return chainNet(chainDepth, chainStage) }

// chainNet builds a serial chain of depth stages of the kinds stage names;
// the probes build homogeneous chains with it.
func chainNet(depth int, stage func(i int) stageKind) snet.Node {
	stages := make([]snet.Node, depth)
	for i := range stages {
		switch stage(i) {
		case filterStage:
			stages[i] = snet.MustFilter(fmt.Sprintf("{<n>} -> {<n>=(<n>*3+%d)%%%d}", i, chainMod))
		case tapStage:
			stages[i] = snet.Observe(fmt.Sprintf("tap%d", i), nil)
		case boxStage:
			add := 2*i + 1
			stages[i] = snet.NewBoxConcurrent(fmt.Sprintf("step%d", i),
				snet.MustParseSignature("(<n>) -> (<n>)"),
				func(args []any, out *snet.Emitter) error {
					return out.Out(1, (args[0].(int)+add)%chainMod)
				}, 1)
		}
	}
	return snet.Serial(stages...)
}

func (c *chain) reference(ops int) {
	var sum int
	for i := 0; i < ops; i++ {
		sum += chainReference(c.start[i%len(c.start)], chainDepth, chainStage)
	}
	sink = sum
}

// sink keeps the compiler from dropping reference loops.
var sink int
