// Package workloads holds the CnC-style benchmark workloads that stress the
// coordination runtime beyond the paper's sudoku case study: the workload
// shapes of the S-Net vs Intel Concurrent Collections comparison
// (Zaichenkov et al., arXiv:1305.7167) expressed as S-Net networks.
//
//   - Wavefront (wavefront.go): a Cholesky/Smith-Waterman-style dependency
//     grid — synchrocells join the {up}/{left} contributions of every
//     interior cell inside tag-indexed parallel replication, and serial
//     replication advances one anti-diagonal per stage.
//   - Divide-and-conquer (divconq.go): recursive mergesort — a star unfolds
//     the split tree, sibling halves rendezvous in synchrocells keyed by
//     their parent node, and merged segments climb back to the root.
//   - Request/response (webpipe.go): a web-shaped classify → handle → render
//     pipeline, the session workload behind the snetd HTTP benchmarks.
//
// Each workload exposes a programmatic net builder with *named* star, split
// and sync nodes (stable stats keys and topology names), the box
// constructors an snet/lang registry binds the corresponding .snet surface
// program against (see examples/wavefront, examples/divconq,
// examples/webpipe), an input generator, and a sequential reference the
// tests and the repository benchmark check results against.  The benchmark
// runs wavefront and webpipe as its wavefront_join and webpipe_* workloads.
package workloads

import (
	"repro/snet"
	"repro/snet/lang"
)

// DemoRegistry returns the registry of the built-in demonstration boxes of
// cmd/snetrun and cmd/snetd -snet, bound to their .snet declaration names —
// integer toys over whatever labels the program's own box declaration gives
// them, so each is a bare function, not a node (see
// cmd/snetd/testdata/countdown.snet).
func DemoRegistry() *lang.Registry {
	return lang.NewRegistry().
		RegisterFunc("inc", func(args []any, out *snet.Emitter) error {
			return out.Out(1, args[0].(int)+1)
		}).
		RegisterFunc("dec", func(args []any, out *snet.Emitter) error {
			n := args[0].(int)
			if n <= 0 {
				return out.Out(2, 0, 1)
			}
			return out.Out(1, n-1)
		}).
		RegisterFunc("double", func(args []any, out *snet.Emitter) error {
			return out.Out(1, args[0].(int)*2)
		}).
		RegisterFunc("split2", func(args []any, out *snet.Emitter) error {
			if err := out.Out(1, args[0].(int)); err != nil {
				return err
			}
			return out.Out(1, args[0].(int))
		}).
		RegisterFunc("echo", func(args []any, out *snet.Emitter) error {
			return out.Out(1)
		})
}
