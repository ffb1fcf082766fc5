package lang_test

import (
	"context"
	"fmt"

	"repro/snet"
	"repro/snet/lang"
)

// A complete textual S-Net program: declare boxes, bind implementations,
// compile and run — the paper's Fig. 1 shape on a toy countdown.
func Example() {
	src := `
		// countdown: each stage decrements <n>; <done> exits the chain
		box dec (<n>) -> (<n>) | (<n>,<done>);
		net countdown connect dec ** {<done>};
	`
	reg := lang.NewRegistry().RegisterFunc("dec",
		func(args []any, out *snet.Emitter) error {
			n := args[0].(int)
			if n == 0 {
				return out.Out(2, 0, 1)
			}
			return out.Out(1, n-1)
		})
	plan, err := lang.CompileNet(lang.MustParse(src), "countdown", reg)
	if err != nil {
		panic(err)
	}
	out, _, _ := plan.RunAll(context.Background(),
		[]*snet.Record{snet.NewRecord().SetTag("n", 3)})
	_, done := out[0].Tag("done")
	fmt.Println(len(out), done)
	// Output: 1 true
}

// Guarded exit patterns parse exactly as the paper writes them (Fig. 3).
func ExampleParse() {
	prog, err := lang.Parse(`
		box step (board, opts) -> (board, opts, <k>, <level>);
		net fig3core connect
		    ([{<k>} -> {<k>=<k>%4}] .. (step !! <k>)) ** ({<level>} | <level> > 40);
	`)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(prog.Boxes), len(prog.Nets))
	// Output: 1 1
}
