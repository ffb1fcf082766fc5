package snet_test

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/snet"
)

// The compile-then-run quickstart: Compile type-checks the blueprint —
// structured TypeErrors surface before anything runs — and returns a Plan
// whose precomputed routing tables every Start shares.
func ExampleCompile() {
	inc := snet.NewBox("inc", snet.MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *snet.Emitter) error {
			return out.Out(1, args[0].(int)+1)
		})
	plan, err := snet.Compile(snet.Serial(inc, snet.MustFilter("{<n>} -> {<n>=<n>*2}")))
	if err != nil {
		panic(err)
	}
	fmt.Println(plan.In(), "->", plan.Out())
	h := plan.Start(context.Background())
	h.Send(snet.NewRecord().SetTag("n", 20))
	h.Close()
	for r := range h.Out() {
		fmt.Println(r)
	}
	// Output:
	// {<n>} -> {<n>}
	// {<n>=42}
}

// Compile rejects networks with branches no record can ever reach — a
// defect that previously surfaced only as a runtime routing failure.
func ExampleCompile_typeError() {
	produce := snet.NewBox("produce", snet.MustParseSignature("(n) -> (a,b)"),
		func(args []any, out *snet.Emitter) error { return out.Out(1, args[0], args[0]) })
	eatAB := snet.NewBox("eatAB", snet.MustParseSignature("(a,b) -> (r)"),
		func(args []any, out *snet.Emitter) error { return out.Out(1, args[0]) })
	eatAC := snet.NewBox("eatAC", snet.MustParseSignature("(a,c) -> (r)"),
		func(args []any, out *snet.Emitter) error { return out.Out(1, args[0]) })

	_, err := snet.Compile(snet.Serial(produce, snet.Parallel(eatAB, eatAC)))
	var te *snet.TypeError
	if errors.As(err, &te) {
		fmt.Println(te.Code, te.Node)
	}
	// Output: unreachable-branch eatAC
}

// The smallest network: one box, one filter, serially composed.
func Example() {
	square := snet.NewBox("square",
		snet.MustParseSignature("(<n>) -> (<n>, <sq>)"),
		func(args []any, out *snet.Emitter) error {
			n := args[0].(int)
			return out.Out(1, n, n*n)
		})
	net := snet.Serial(square, snet.MustFilter("{<sq>} -> {<result>=<sq>+1}"))

	out, _, _ := snet.MustCompile(net).RunAll(context.Background(),
		[]*snet.Record{snet.NewRecord().SetTag("n", 6)})
	fmt.Println(out[0])
	// Output: {<n>=6, <result>=37}
}

// Serial replication unfolds on demand until records match the exit
// pattern — the paper's A ** {<done>}.
func ExampleStar() {
	dec := snet.NewBox("dec",
		snet.MustParseSignature("(<n>) -> (<n>) | (<n>,<done>)"),
		func(args []any, out *snet.Emitter) error {
			n := args[0].(int)
			if n == 0 {
				return out.Out(2, 0, 1)
			}
			return out.Out(1, n-1)
		})
	net := snet.Star(dec, snet.MustParsePattern("{<done>}"))
	out, stats, _ := snet.MustCompile(net).RunAll(context.Background(),
		[]*snet.Record{snet.NewRecord().SetTag("n", 3)})
	fmt.Println(len(out), stats.SumPrefix("star.") > 0)
	// Output: 1 true
}

// Parallel replication routes by tag value; equal tags share a replica.
func ExampleSplit() {
	id := snet.NewBox("id", snet.MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *snet.Emitter) error { return out.Out(1, args[0]) })
	net := snet.NamedSplit("width", id, "k")
	var inputs []*snet.Record
	for i := 0; i < 6; i++ {
		inputs = append(inputs, snet.NewRecord().SetTag("n", i).SetTag("k", i%2))
	}
	out, stats, _ := snet.MustCompile(net).RunAll(context.Background(), inputs)
	got := make([]int, 0, len(out))
	for _, r := range out {
		n, _ := r.Tag("n")
		got = append(got, n)
	}
	sort.Ints(got)
	fmt.Println(got, stats.Counter("split.width.replicas"))
	// Output: [0 1 2 3 4 5] 2
}

// Flow inheritance: labels not consumed by a box reappear on its outputs.
func ExampleNewBox_flowInheritance() {
	foo := snet.NewBox("foo", snet.MustParseSignature("(a) -> (b)"),
		func(args []any, out *snet.Emitter) error {
			return out.Out(1, "B")
		})
	in := snet.NewRecord().SetField("a", "A").SetTag("extra", 7)
	out, _, _ := snet.MustCompile(foo).RunAll(context.Background(), []*snet.Record{in})
	fmt.Println(out[0])
	// Output: {b=B, <extra>=7}
}

// Patterns can carry tag guards, as in the paper's Fig. 3 exit condition.
func ExampleMustParsePattern() {
	p := snet.MustParsePattern("{<level>} | <level> > 40")
	r1 := snet.NewRecord().SetTag("level", 41)
	r2 := snet.NewRecord().SetTag("level", 40)
	fmt.Println(p.Matches(r1), p.Matches(r2))
	// Output: true false
}
