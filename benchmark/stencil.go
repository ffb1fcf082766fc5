package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/sac"
	"repro/snet"
)

const (
	gridN       = 256 // grids are gridN x gridN
	stencilCall = 8   // grids per Plan.RunAll call, and distinct grids in the corpus
	smoothings  = 3
)

var stencilBoxes = &workload{
	name: "stencil_boxes",
	why: "smooth .. smooth .. smooth .. energy over 256x256 grids, every box a with-loop on a shared pool: " +
		"coordinated data-parallel boxes; internal/sched and internal/array do the work, coordination little",
	op:       "grid",
	callOps:  stencilCall,
	sliceOps: 20 * stencilCall,
	traceOps: 16 * stencilCall,
	setup: func(seed int64, maxOps int) (instance, error) {
		return newStencil(seed, maxOps/stencilCall+1)
	},
}

// newStencil draws the grids from the seed and compiles the net; calls is
// the most Plan.RunAll calls one slice will make.
func newStencil(seed int64, calls int) (*stencil, error) {
	s := &stencil{pool: sac.NewPool(runtime.GOMAXPROCS(0))}
	rng := rand.New(rand.NewSource(seed))
	for g := 0; g < stencilCall; g++ {
		data := make([]int64, gridN*gridN)
		for i := range data {
			data[i] = rng.Int63n(1000)
		}
		s.grids = append(s.grids, sac.FromSlice([]int{gridN, gridN}, data))
		s.want = append(s.want, energyReference(data))
	}
	p, err := snet.Compile(s.build())
	if err != nil {
		return nil, err
	}
	s.runAller = runAller{p: p, callOps: stencilCall, inputs: s.inputs, check: s.check, lat: make([]int64, calls)}
	return s, nil
}

// stencil is the stencil_boxes workload.  Grids hold integers so that the
// energy is the same number at every pool width and fold order.
type stencil struct {
	pool  *sac.Pool
	grids []*sac.Array[int64]
	want  []int64 // energy of grids[i] after the smoothings, by plain loops
	runAller
}

// smoothAt is the 5-point stencil at (i, j) with the edges clamped.
func smoothAt(d []int64, i, j int) int64 {
	up, down, left, right := max(i-1, 0), min(i+1, gridN-1), max(j-1, 0), min(j+1, gridN-1)
	return (4*d[i*gridN+j] + d[up*gridN+j] + d[down*gridN+j] + d[i*gridN+left] + d[i*gridN+right]) / 8
}

// energyReference is the sequential reference: plain loops, no with-loops.
func energyReference(data []int64) int64 {
	cur := append([]int64(nil), data...)
	next := make([]int64, len(cur))
	for s := 0; s < smoothings; s++ {
		for i := 0; i < gridN; i++ {
			for j := 0; j < gridN; j++ {
				next[i*gridN+j] = smoothAt(cur, i, j)
			}
		}
		cur, next = next, cur
	}
	var e int64
	for _, v := range cur {
		e += v * v
	}
	return e
}

var gridBounds = [2][]int{{0, 0}, {gridN, gridN}}

// smooth is the body of the smooth box: one with-loop over the grid.
func smooth(p *sac.Pool, g *sac.Array[int64]) *sac.Array[int64] {
	d := g.Data()
	return sac.Genarray(p, gridBounds[1], 0,
		sac.GenHalfOpen(gridBounds[0], gridBounds[1], func(iv []int) int64 { return smoothAt(d, iv[0], iv[1]) }))
}

// energy is the body of the energy box: one fold with-loop.
func energy(p *sac.Pool, g *sac.Array[int64]) int64 {
	d := g.Data()
	return sac.Fold(p, 0, func(a, b int64) int64 { return a + b },
		sac.GenHalfOpen(gridBounds[0], gridBounds[1], func(iv []int) int64 {
			v := d[iv[0]*gridN+iv[1]]
			return v * v
		}))
}

func (s *stencil) build() snet.Node { return stencilNet(s.pool) }

// stencilNet builds smooth .. smooth .. smooth .. energy with boxes whose
// with-loops run on pool; <id> rides along by flow inheritance.
func stencilNet(pool *sac.Pool) snet.Node {
	stages := make([]snet.Node, 0, smoothings+1)
	for i := 0; i < smoothings; i++ {
		stages = append(stages, snet.NewBox(fmt.Sprintf("smooth%d", i+1), snet.MustParseSignature("(grid) -> (grid)"),
			func(args []any, out *snet.Emitter) error {
				return out.Out(1, smooth(pool, args[0].(*sac.Array[int64])))
			}))
	}
	stages = append(stages, snet.NewBox("energy", snet.MustParseSignature("(grid) -> (energy)"),
		func(args []any, out *snet.Emitter) error {
			return out.Out(1, energy(pool, args[0].(*sac.Array[int64])))
		}))
	return snet.Serial(stages...)
}

func (s *stencil) inputs() []*snet.Record {
	in := make([]*snet.Record, len(s.grids))
	for i, g := range s.grids {
		in[i] = snet.NewRecord().SetField("grid", g).SetTag("id", i)
	}
	return in
}

func (s *stencil) check(out []*snet.Record, _ *snet.Stats) int {
	right := make([]bool, len(s.grids))
	n := 0
	for _, r := range out {
		id, _ := r.Tag("id")
		e, _ := r.Field("energy")
		if id >= 0 && id < len(s.want) && !right[id] && e == s.want[id] {
			right[id] = true
			n++
		}
	}
	return len(s.grids) - n
}

// reference is the bare compute: the same with-loops on a sequential pool,
// with no net around them.
func (s *stencil) reference(ops int) {
	for i := 0; i < ops; i++ {
		g := s.grids[i%len(s.grids)]
		for k := 0; k < smoothings; k++ {
			g = smooth(seqPool, g)
		}
		if energy(seqPool, g) != s.want[i%len(s.grids)] {
			panic("stencil with-loops disagree with the plain-loop reference")
		}
	}
}
