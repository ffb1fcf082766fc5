package core

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// The by-name reference of record construction inside the runtime: what a box
// emission, a synchrocell merge and flow inheritance produce when every label
// is looked up by its name, one SetField/SetTag at a time.  The runtime builds
// the same records by slot (box programs, filter programs, the synchrocell's
// merge program); these tests hold the two equal.

// inheritByName is flow inheritance label by label: every label of src that
// is not consumed is copied to dst unless dst already carries it.
func inheritByName(dst, src *Record, consumed Variant) {
	for _, name := range src.FieldNames() {
		if consumed.Has(Field(name)) || dst.HasLabel(Field(name)) {
			continue
		}
		v, _ := src.Field(name)
		dst.SetField(name, v)
	}
	for _, name := range src.TagNames() {
		if consumed.Has(Tag(name)) || dst.HasLabel(Tag(name)) {
			continue
		}
		v, _ := src.Tag(name)
		dst.SetTag(name, v)
	}
}

// progUniverse is the label pool of the random signatures and records: a
// field and a tag share the names a and b.
var progUniverse = []Label{
	Field("a"), Field("b"), Field("c"), Field("d"), Field("e"),
	Tag("a"), Tag("b"), Tag("t"), Tag("u"), Tag("v"),
}

func randLabels(rng *rand.Rand, max int) []Label {
	perm := rng.Perm(len(progUniverse))
	out := make([]Label, rng.Intn(max+1))
	for i := range out {
		out[i] = progUniverse[perm[i]]
	}
	return out
}

// progVals are the values an invocation emits for one output variant: a
// function of the variant and of everything the box was handed, so a value
// bound from the wrong slot shows in every output.
func progVals(variant int, labels []Label, args []any) []any {
	digest := 0
	for _, c := range fmt.Sprint(args...) {
		digest = (digest*31 + int(c)) % 9973
	}
	vals := make([]any, len(labels))
	for i, l := range labels {
		if l.IsTag {
			vals[i] = variant*100000 + i*10000 + digest
		} else {
			vals[i] = fmt.Sprintf("v%d.%d/%d", variant, i, digest)
		}
	}
	return vals
}

// progCase is one random box with its inputs and everything the by-name
// reference says a run of it must produce.
type progCase struct {
	name   string
	sig    *BoxSignature
	inputs func() []*Record // fresh copies: a run consumes what it is sent
	want   []string         // the outputs, rendered, in order
	reject []string         // the rejection errors, in order
	probes []string         // what the bad Out calls of all invocations return, sorted
}

func newProgCase(rng *rand.Rand, trial int) *progCase {
	c := &progCase{name: fmt.Sprintf("rnd%d", trial), sig: &BoxSignature{In: randLabels(rng, 3)}}
	for v := 1 + rng.Intn(3); v > 0; v-- {
		tuple := randLabels(rng, 4)
		if len(tuple) > 0 && rng.Intn(4) == 0 {
			tuple = append(tuple, tuple[rng.Intn(len(tuple))]) // a label twice: the later value wins
		}
		c.sig.Out = append(c.sig.Out, tuple)
	}
	consumed := NewVariant(c.sig.In...)
	var protos []*Record
	for r := 0; r < 6; r++ {
		rec := NewRecord()
		labels := append(randLabels(rng, 6), c.sig.In...)
		if len(c.sig.In) > 0 && rng.Intn(5) == 0 {
			labels = labels[:len(labels)-1] // may now lack an input label, unless the extras carry it
		}
		for k, l := range labels {
			if l.IsTag {
				rec.SetTag(l.Name, r*100+k)
			} else {
				rec.SetField(l.Name, fmt.Sprintf("in%d.%d", r, k))
			}
		}
		protos = append(protos, rec)
	}
	c.inputs = func() []*Record {
		out := make([]*Record, len(protos))
		for i, p := range protos {
			out[i] = p.Copy()
		}
		return out
	}
	for _, src := range protos {
		if !consumed.SubsetOf(src.Labels()) {
			c.reject = append(c.reject, fmt.Sprintf("core: box %s: input record %s does not match signature %s",
				c.name, src, c.sig))
			continue
		}
		args := make([]any, len(c.sig.In))
		for i, l := range c.sig.In {
			if l.IsTag {
				args[i], _ = src.Tag(l.Name)
			} else {
				args[i], _ = src.Field(l.Name)
			}
		}
		for v, tuple := range c.sig.Out {
			o := NewRecord()
			for i, val := range progVals(v+1, tuple, args) {
				if tuple[i].IsTag {
					o.SetTag(tuple[i].Name, val.(int))
				} else {
					o.SetField(tuple[i].Name, val)
				}
			}
			inheritByName(o, src, consumed)
			c.want = append(c.want, o.String())
		}
		c.probes = append(c.probes, c.probeWant()...)
	}
	sort.Strings(c.probes)
	return c
}

// probeWant lists the errors one invocation's bad Out calls must return.
func (c *progCase) probeWant() []string {
	n := len(c.sig.Out)
	errs := []string{
		fmt.Sprintf("core: box %s: snet_out variant %d out of range 1..%d", c.name, 0, n),
		fmt.Sprintf("core: box %s: snet_out variant %d out of range 1..%d", c.name, n+1, n),
	}
	for v, tuple := range c.sig.Out {
		errs = append(errs, fmt.Sprintf("core: box %s: snet_out variant %d needs %d values, got %d",
			c.name, v+1, len(tuple), len(tuple)+1))
		for _, l := range tuple {
			if l.IsTag {
				errs = append(errs, fmt.Sprintf("core: box %s: value for tag <%s> must be int, got string", c.name, l.Name))
				break
			}
		}
	}
	return errs
}

// node builds the box: it emits every output variant, then makes every bad
// Out call there is and keeps what each returned.
func (c *progCase) node(workers int, probes *[]string) Node {
	var mu sync.Mutex
	sig := c.sig
	return NewBoxConcurrent(c.name, sig, func(args []any, out *Emitter) error {
		for v, tuple := range sig.Out {
			if err := out.Out(v+1, progVals(v+1, tuple, args)...); err != nil {
				return err
			}
		}
		bad := [][]any{{0}, {len(sig.Out) + 1}}
		for v, tuple := range sig.Out {
			vals := progVals(v+1, tuple, args)
			bad = append(bad, append([]any{v + 1}, append(vals, "extra")...))
			for i, l := range tuple {
				if l.IsTag {
					vals[i] = "notint"
					bad = append(bad, append([]any{v + 1}, vals...))
					break
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for _, call := range bad {
			err := out.Out(call[0].(int), call[1:]...)
			if err == nil {
				return fmt.Errorf("Out(%v) accepted", call)
			}
			*probes = append(*probes, err.Error())
		}
		return nil
	}, workers)
}

// render is renderStream record by record, for failure messages that show
// which record differs.
func render(recs []*Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.String()
	}
	return out
}

// TestBoxProgramMatchesByName: random signatures × random input shapes ×
// every output variant, on the stepped path (W unset, W=1, alone and between
// taps) and on the concurrent engine's (W=4): every emitted record equals the
// one built label by label, rejections and Out's errors are the same strings,
// the counters agree and nothing stays in the arena.  Then the same for tag
// expressions wherever a running network evaluates one (tagprog_test.go).
func TestBoxProgramMatchesByName(t *testing.T) {
	bothPlans(t, testBoxProgramMatchesByName)
	bothPlans(t, testTagExprsThroughNet)
}

func testBoxProgramMatchesByName(t *testing.T, m execMode) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 120; trial++ {
		c := newProgCase(rng, trial)
		for _, workers := range []int{0, 1, 4} {
			var probes, rejected []string
			net := Serial(Observe("", nil), c.node(workers, &probes), Observe("", nil))
			live := PoolStats().Live()
			out, stats, err := m.RunAll(context.Background(), net, c.inputs(),
				WithErrorHandler(func(e error) { rejected = append(rejected, e.Error()) }))
			if err != nil {
				t.Fatalf("%s W=%d: %v", c.sig, workers, err)
			}
			sort.Strings(probes)
			if got := render(out); !slices.Equal(got, c.want) {
				t.Fatalf("box %s W=%d:\n got %q\nwant %q", c.sig, workers, got, c.want)
			}
			if !slices.Equal(rejected, c.reject) {
				t.Fatalf("box %s W=%d: rejections\n got %q\nwant %q", c.sig, workers, rejected, c.reject)
			}
			if !slices.Equal(probes, c.probes) {
				t.Fatalf("box %s W=%d: Out errors\n got %q\nwant %q", c.sig, workers, probes, c.probes)
			}
			calls := int64(len(c.inputs()) - len(c.reject))
			if r, k, e := stats.Counter("box."+c.name+".rejected"), stats.Counter("box."+c.name+".calls"),
				stats.Counter("box."+c.name+".emitted"); r != int64(len(c.reject)) || k != calls || e != int64(len(c.want)) {
				t.Fatalf("box %s W=%d: rejected=%d calls=%d emitted=%d, want %d %d %d",
					c.sig, workers, r, k, e, len(c.reject), calls, len(c.want))
			}
			if d := PoolStats().Live() - live; d != 0 {
				t.Fatalf("box %s W=%d: %d arena records live after the run", c.sig, workers, d)
			}
		}
	}
}

// TestBoxProgramPastMemoCap feeds one box more distinct input shapes than a
// shape memo holds: past the cap a program is compiled for the record at hand,
// and the records come out the same.
func TestBoxProgramPastMemoCap(t *testing.T) {
	const extras = 13 // 2^13 subsets of x0..x12: distinct shapes from few labels
	n := maxMemoEntries + 100
	inputs := make([]*Record, n)
	want := make([]string, n)
	for i := range inputs {
		in, o := NewRecord().SetTag("n", i), NewRecord().SetTag("n", i+1)
		for b := 0; b < extras; b++ {
			if i&(1<<b) != 0 {
				in.SetField(fmt.Sprintf("x%d", b), i+b)
				o.SetField(fmt.Sprintf("x%d", b), i+b)
			}
		}
		inputs[i], want[i] = in, o.String()
	}
	box := NewBoxConcurrent("cap", MustParseSignature("(<n>) -> (<n>)"),
		func(args []any, out *Emitter) error { return out.Out(1, args[0].(int)+1) }, 1)
	out, _ := fused.runNet(t, Serial(Observe("", nil), box), inputs)
	if got := render(out); !slices.Equal(got, want) {
		t.Fatalf("outputs differ past the memo cap (first: got %q, want %q)", got[0], want[0])
	}
}

// TestSyncMergeMatchesByName holds the synchrocell's merge to the by-name
// reference: random patterns over random records, the first match of each
// pattern kept, the merger built from the first stored record on, earlier
// patterns winning every clash.
func TestSyncMergeMatchesByName(t *testing.T) { bothPlans(t, testSyncMergeMatchesByName) }

func testSyncMergeMatchesByName(t *testing.T, m execMode) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		patterns := make([]Pattern, 2+rng.Intn(2))
		for i := range patterns {
			patterns[i] = Pattern{Variant: NewVariant(append(randLabels(rng, 2), progUniverse[rng.Intn(len(progUniverse))])...)}
		}
		var protos []*Record
		for r := 0; r < 8; r++ {
			rec := NewRecord()
			for k, l := range append(randLabels(rng, 5), patterns[rng.Intn(len(patterns))].Variant.Labels()...) {
				if l.IsTag {
					rec.SetTag(l.Name, r*100+k)
				} else {
					rec.SetField(l.Name, fmt.Sprintf("in%d.%d", r, k))
				}
			}
			protos = append(protos, rec)
		}
		// The cell by the book (sync.go's doc), label by label.
		var want []string
		storage, fired := make([]*Record, len(patterns)), false
		for _, rec := range protos {
			stored := false
			for k, p := range patterns {
				if !fired && !stored && storage[k] == nil && p.Matches(rec) {
					storage[k], stored = rec, true
				}
			}
			if !stored {
				want = append(want, rec.String())
				continue
			}
			complete := true
			for _, s := range storage {
				complete = complete && s != nil
			}
			if complete {
				merged := storage[0].Copy()
				for _, s := range storage[1:] {
					inheritByName(merged, s, merged.Labels())
				}
				want = append(want, merged.String())
				fired = true
			}
		}
		inputs := make([]*Record, len(protos))
		for i, p := range protos {
			inputs[i] = p.Copy()
		}
		live := PoolStats().Live()
		out, _ := m.runNet(t, Serial(Observe("", nil), Sync(patterns...)), inputs)
		if got := render(out); !slices.Equal(got, want) {
			t.Fatalf("sync %v:\n got %q\nwant %q", patterns, got, want)
		}
		if d := PoolStats().Live() - live; d != 0 {
			t.Fatalf("sync %v: %d arena records live after the run", patterns, d)
		}
	}
}

// TestRuntimeAddressesRecordsBySlot is the lint that keeps it so.  Outside
// record.go (the by-name API itself) and reserved.go (which builds and tests
// the control records of the close protocol, by their reserved names) no
// non-test file of the package calls a by-name accessor of a record.  No
// non-test file names the tree evaluator of tag expressions or the arena's
// package-level acquires, which are gone (a tag expression is compiled per
// shape, prog.go; the arena is entered through a front, arena.go).  And what a
// goroutine does to a record between two input frames takes no atomic: a step,
// and a method of a segment type other than the fold, neither releases through
// the package-level releaseRecord nor adds to a held counter cell.
func TestRuntimeAddressesRecordsBySlot(t *testing.T) {
	byName := map[string]bool{"SetTag": true, "SetField": true, "Tag": true, "Field": true,
		"DeleteTag": true, "DeleteField": true, "MustTag": true, "MustField": true}
	gone := map[string]bool{"evalTagRec": true, "acquireRecord": true, "acquireShaped": true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// perRecord reports whether fn is a step, or a method of a segment type
	// other than fold.
	perRecord := func(fn *ast.FuncDecl) bool {
		if fn.Recv == nil || fn.Name.Name == "fold" {
			return false
		}
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		id, ok := recv.(*ast.Ident)
		return fn.Name.Name == "step" || ok && strings.HasPrefix(id.Name, "segment")
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			slotOnly := name != "record.go" && name != "reserved.go"
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if gone[n.Name] {
						t.Errorf("%s: %s is back: it was deleted in favour of the slot program and the arena front",
							fset.Position(n.Pos()), n.Name)
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && byName[sel.Sel.Name] && slotOnly {
						t.Errorf("%s: .%s(…) looks a label up by name; the runtime addresses records by slot (prog.go)",
							fset.Position(n.Pos()), sel.Sel.Name)
					}
				case *ast.FuncDecl:
					if n.Body == nil || !perRecord(n) {
						return true
					}
					ast.Inspect(n.Body, func(m ast.Node) bool {
						call, ok := m.(*ast.CallExpr)
						if !ok {
							return true
						}
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "releaseRecord" {
							t.Errorf("%s: package-level releaseRecord in %s: a step releases through its goroutine's front (arena.go)",
								fset.Position(call.Pos()), n.Name.Name)
						}
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
							if inner, ok := sel.X.(*ast.CallExpr); ok {
								if held, ok := inner.Fun.(*ast.SelectorExpr); ok && held.Sel.Name == "held" {
									t.Errorf("%s: atomic add on a held cell in %s: a step ticks a tally, folded once per input frame (runctx.go)",
										fset.Position(call.Pos()), n.Name.Name)
								}
							}
						}
						return true
					})
				}
				return true
			})
		}
	}
	if unsafe.Sizeof(binExpr{}.op) != 1 || unsafe.Sizeof(tagInstr{}.op) != 1 {
		t.Errorf("a tag expression's operator is one byte (TokKind), in the tree and in the program")
	}
}
