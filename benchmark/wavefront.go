package main

import (
	"repro/internal/workloads"
	"repro/snet"
)

const (
	waveN     = 64
	waveCells = waveN * waveN
)

var wavefrontJoin = &workload{
	name: "wavefront_join",
	why: "a 64x64 dependency grid from one {start} record: synchrocells inside split replicas inside a star, " +
		"so replica unfolding and join cost dominate (the E17 drift, and W=4 losing to W=1)",
	op:       "cell",
	callOps:  waveCells,
	sliceOps: 2 * waveCells,
	traceOps: 2 * waveCells,
	setup: func(seed int64, maxOps int) (instance, error) {
		p, err := snet.Compile(workloads.WavefrontNet(waveN, seed))
		if err != nil {
			return nil, err
		}
		want := workloads.WavefrontReference(waveN, seed)
		return &wave{seed: seed, runAller: runAller{
			p: p, callOps: waveCells, lat: make([]int64, maxOps/waveCells+1),
			inputs: func() []*snet.Record { return []*snet.Record{workloads.WavefrontSeed()} },
			check: func(out []*snet.Record, st *snet.Stats) int {
				if len(out) != 1 {
					return waveCells
				}
				got, _ := out[0].Field("result")
				// One join per interior cell and one star stage per
				// anti-diagonal are what the net's construction promises.
				if got != want ||
					st.Counter("sync.wave_join.fired") != (waveN-1)*(waveN-1) ||
					st.Counter("star.wave_front.replicas") != 2*waveN-1 {
					return waveCells
				}
				return 0
			},
		}}, nil
	},
}

// wave is the wavefront_join workload: every call unfolds the whole grid
// with Plan.RunAll and yields one {result} record.
type wave struct {
	seed int64
	runAller
}

func (w *wave) reference(ops int) {
	for c := 0; c < ops/waveCells; c++ {
		sink = workloads.WavefrontReference(waveN, w.seed)
	}
}

func (w *wave) build() snet.Node { return workloads.WavefrontNet(waveN, w.seed) }
