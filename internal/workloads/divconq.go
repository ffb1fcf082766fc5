package workloads

import (
	"fmt"
	"sort"

	"repro/snet"
)

// The divide-and-conquer workload: recursive mergesort as a star-unfolded
// split-solve-combine tree — the CnC comparison's recursive-decomposition
// shape, and the stress case for split replica churn under deep recursion.
//
// Segments are addressed by heap numbering: the root is node 1, the children
// of node t are 2t (left half) and 2t+1 (right half).  The divide box splits
// a segment per star stage until it reaches the leaf size and sorts it;
// sorted halves become {l,...}/{r,...} records keyed by a composite tag
// p = job·stride + parent, so sibling halves of the same job rendezvous in
// the synchrocell of their own split replica:
//
//	( divide || (([| {l,<p>,<job>}, {r,<p>,<job>} |] .. conquer) !! <p>)
//	) ** {<done>}
//
// Because n and leaf are powers of two, every leaf sits at the same depth,
// sibling halves are always produced in the same star stage, and each merge
// happens exactly one stage later — no synchrocell ever waits across stages.
// Each job emits a single {out, <job>, <done>} record carrying the sorted
// data; the star depth is 2·log2(n/leaf)+1.
//
// The composite p exceeds the runtime's default split-width fold (1<<20)
// once jobs·stride does, and folding must NOT collapse distinct keys (two
// different joins sharing a replica would corrupt both syncs) — run this net
// with WithMaxSplitWidth(DivConqSplitWidth(jobs, n, leaf)) or larger.

// DivConqElements returns the element count a run with the given jobs sorts
// — the workload-item count behind the E18 records/s figures.
func DivConqElements(jobs, n int) int { return jobs * n }

func requirePow2(name string, v int) {
	if v < 1 || v&(v-1) != 0 {
		panic(fmt.Sprintf("workloads: divconq %s must be a power of two, got %d", name, v))
	}
}

// divConqStride is the per-job key space: node ids run 1..2L-1 for L = n/leaf
// leaves, so a stride of 2L keeps p = job·stride + t collision-free.
func divConqStride(n, leaf int) int {
	requirePow2("n", n)
	requirePow2("leaf", leaf)
	if leaf > n {
		panic(fmt.Sprintf("workloads: divconq leaf %d exceeds n %d", leaf, n))
	}
	return 2 * (n / leaf)
}

// DivConqSplitWidth returns a WithMaxSplitWidth value large enough that the
// composite p tags of a (jobs, n, leaf) run are never modulo-folded.
func DivConqSplitWidth(jobs, n, leaf int) int {
	return (jobs + 1) * divConqStride(n, leaf)
}

// DivConqInput generates job j's unsorted data deterministically from seed.
func DivConqInput(n int, seed int64, job int) []int {
	seg := make([]int, n)
	for i := range seg {
		z := uint64(seed) + uint64(job)*0x632be59bd9b4e019 + uint64(i+1)*0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		seg[i] = int((z ^ (z >> 31)) % 1_000_000)
	}
	return seg
}

// DivConqJobs builds the input records for a run: one {seg, <t>=1, <job>=j}
// record per job.
func DivConqJobs(jobs, n int, seed int64) []*snet.Record {
	recs := make([]*snet.Record, jobs)
	for j := 0; j < jobs; j++ {
		recs[j] = snet.NewRecord().
			SetField("seg", DivConqInput(n, seed, j)).
			SetTag("t", 1).
			SetTag("job", j)
	}
	return recs
}

// DivConqReference returns the sorted copy the network's {out} record for
// the same input must reproduce.
func DivConqReference(seg []int) []int {
	sorted := append([]int(nil), seg...)
	sort.Ints(sorted)
	return sorted
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return append(append(out, a[i:]...), b[j:]...)
}

// emitDCHalf sends a solved segment of node t upward as its parent's left or
// right half (children 2m/2m+1 of node m: even t is the left half).
func emitDCHalf(out *snet.Emitter, seg []int, t, job, stride, lVar, rVar int) error {
	p := job*stride + t/2
	if t%2 == 0 {
		return out.Out(lVar, seg, p, job)
	}
	return out.Out(rVar, seg, p, job)
}

// DivConqBoxes returns the two boxes of the divide-and-conquer net keyed by
// their .snet declaration names (see examples/divconq/mergesort.snet).
// n and leaf must be powers of two with leaf <= n.
func DivConqBoxes(n, leaf int) map[string]snet.Node {
	stride := divConqStride(n, leaf)

	// divide splits a segment in half per stage until the leaf size, where
	// it sorts and sends the result upward (or straight out when the whole
	// job fits in one leaf).
	divide := snet.NewBox("divide",
		snet.MustParseSignature("(seg, <t>, <job>) -> (seg, <t>, <job>) | "+
			"(l, <p>, <job>) | (r, <p>, <job>) | (out, <job>, <done>)"),
		func(args []any, out *snet.Emitter) error {
			seg := args[0].([]int)
			t := args[1].(int)
			job := args[2].(int)
			if len(seg) <= leaf {
				sorted := append([]int(nil), seg...)
				sort.Ints(sorted)
				if t == 1 {
					return out.Out(4, sorted, job, 1)
				}
				return emitDCHalf(out, sorted, t, job, stride, 2, 3)
			}
			mid := len(seg) / 2
			if err := out.Out(1, seg[:mid:mid], 2*t, job); err != nil {
				return err
			}
			return out.Out(1, seg[mid:], 2*t+1, job)
		})

	// conquer merges the two sorted halves the synchrocell paired and climbs
	// one level; the root merge leaves the star.
	conquer := snet.NewBox("conquer",
		snet.MustParseSignature("(l, r, <p>, <job>) -> "+
			"(l, <p>, <job>) | (r, <p>, <job>) | (out, <job>, <done>)"),
		func(args []any, out *snet.Emitter) error {
			lseg := args[0].([]int)
			rseg := args[1].([]int)
			p := args[2].(int)
			job := args[3].(int)
			merged := mergeSorted(lseg, rseg)
			t := p % stride
			if t == 1 {
				return out.Out(3, merged, job, 1)
			}
			return emitDCHalf(out, merged, t, job, stride, 1, 2)
		})

	return map[string]snet.Node{"divide": divide, "conquer": conquer}
}

// DivConqNet builds the divide-and-conquer network with named star, split
// and sync nodes: "star.dc_tree.replicas" counts the unfolding depth,
// "split.dc_pairs.replicas" the join replica churn, and
// "sync.dc_join.fired" the merges performed (n/leaf - 1 per job).
func DivConqNet(n, leaf int) snet.Node {
	b := DivConqBoxes(n, leaf)
	pairs := snet.NamedSplit("dc_pairs",
		snet.Serial(
			snet.NamedSync("dc_join",
				snet.MustParsePattern("{l, <p>, <job>}"),
				snet.MustParsePattern("{r, <p>, <job>}")),
			b["conquer"]),
		"p")
	stage := snet.Parallel(b["divide"], pairs)
	return snet.NamedStar("dc_tree", stage, snet.MustParsePattern("{<done>}"))
}
