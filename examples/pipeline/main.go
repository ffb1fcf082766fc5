// A numerical stream pipeline in the paper's two-layer style: each box is a
// data-parallel SaC-like array computation (with-loops over a matrix), and
// S-Net coordinates a pipeline of such stages over a stream of frames —
// the "numerical applications on large homogeneous data structures" that
// motivate the paper's introduction.
//
// Stages: generate frame -> 5-point stencil smooth (with-loop) ->
// per-frame statistics (fold) -> threshold filter on a tag.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/sac"
	"repro/snet"
)

const side = 256

// smoothBox applies a 5-point stencil via a genarray-with-loop — the
// classic data-parallel kernel shape (cf. the NAS MG references in §1).
func smoothBox(p *sac.Pool) snet.Node {
	return snet.NewBox("smooth",
		snet.MustParseSignature("(frame) -> (frame)"),
		func(args []any, out *snet.Emitter) error {
			src := args[0].(*sac.Array[float64])
			sh := src.Shape()
			res := sac.Genarray(p, sh, 0.0,
				sac.GenHalfOpen([]int{1, 1}, []int{sh[0] - 1, sh[1] - 1},
					func(iv []int) float64 {
						i, j := iv[0], iv[1]
						return 0.2 * (src.At(i, j) + src.At(i-1, j) +
							src.At(i+1, j) + src.At(i, j-1) + src.At(i, j+1))
					}))
			return out.Out(1, res)
		})
}

// statsBox reduces each frame to its energy with a fold-with-loop and
// turns it into a coordination-level tag (scaled to int, as S-Net tags are
// integers).
func statsBox(p *sac.Pool) snet.Node {
	return snet.NewBox("stats",
		snet.MustParseSignature("(frame) -> (frame, <energy>)"),
		func(args []any, out *snet.Emitter) error {
			f := args[0].(*sac.Array[float64])
			sh := f.Shape()
			sum := sac.Fold(p, 0.0, func(a, b float64) float64 { return a + b },
				sac.GenHalfOpen([]int{0, 0}, sh, func(iv []int) float64 {
					v := f.At(iv[0], iv[1])
					return v * v
				}))
			return out.Out(1, f, int(sum))
		})
}

func main() {
	pool := sac.NewPool(2) // the with-loops inside the boxes parallelise

	// Three smoothing stages in series, then statistics, then a
	// coordination-level threshold implemented purely with a filter and
	// parallel routing: high-energy frames keep a <hot> tag.
	classify := snet.Parallel(
		snet.MustFilter("{<energy>} | <energy> >= 15815 -> {<energy>=<energy>, <hot>=1}"),
		snet.MustFilter("{<energy>} | <energy> < 15815 -> {<energy>=<energy>}"),
	)
	plan := snet.MustCompile(snet.Serial(smoothBox(pool), smoothBox(pool), smoothBox(pool),
		statsBox(pool), classify))

	h := plan.Start(context.Background())
	go func() {
		for k := 0; k < 8; k++ {
			frame := sac.Genarray(pool, []int{side, side}, 0.0,
				sac.GenHalfOpen([]int{0, 0}, []int{side, side},
					func(iv []int) float64 {
						return float64((iv[0]*iv[1]*(k+1))%97) / 97.0
					}))
			rec := snet.NewRecord().SetField("frame", frame).SetTag("id", k)
			if err := h.Send(rec); err != nil {
				log.Fatal(err)
			}
		}
		h.Close()
	}()

	hot := 0
	for rec := range h.Out() {
		id, _ := rec.Tag("id")
		energy, _ := rec.Tag("energy")
		_, isHot := rec.Tag("hot")
		if isHot {
			hot++
		}
		fmt.Printf("frame %d: energy=%-8d hot=%v\n", id, energy, isHot)
	}
	fmt.Printf("%d hot frames\n", hot)
}
