package sudoku

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sacvm"
)

// Differential tests: the paper's interpreted SaC functions must agree with
// the native Go implementations on every solver primitive.

func sacBoxes(t *testing.T) *SacBoxes {
	t.Helper()
	return NewSacBoxes(sp)
}

func TestSacAddNumberMatchesNative(t *testing.T) {
	s := sacBoxes(t)
	b := Easy()
	opts, _ := ComputeOpts(sp, b)
	for _, c := range []struct{ i, j, k int }{{0, 2, 4}, {4, 4, 5}, {8, 0, 3}} {
		nb, no := AddNumber(sp, b, opts, c.i, c.j, c.k)
		res, err := s.Interp().Call("addNumber", []sacvm.Value{
			sacvm.IntScalar(c.i), sacvm.IntScalar(c.j), sacvm.IntScalar(c.k),
			BoardToValue(b), OptionsToValue(opts),
		}, nil)
		if err != nil {
			t.Fatalf("addNumber(%v): %v", c, err)
		}
		gb, err := ValueToBoard(res[0])
		if err != nil {
			t.Fatal(err)
		}
		go2, err := ValueToOptions(res[1])
		if err != nil {
			t.Fatal(err)
		}
		if !gb.Equal(nb) {
			t.Fatalf("addNumber(%v): boards differ", c)
		}
		if !go2.Equal(no) {
			t.Fatalf("addNumber(%v): options differ", c)
		}
	}
}

func TestSacComputeOptsMatchesNative(t *testing.T) {
	s := sacBoxes(t)
	b := Easy()
	native, _ := ComputeOpts(sp, b)
	res, err := s.Interp().Call("computeOpts", []sacvm.Value{BoardToValue(b)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValueToOptions(res[1])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(native) {
		t.Fatal("computeOpts cubes differ")
	}
}

func TestSacPredicatesMatchNative(t *testing.T) {
	s := sacBoxes(t)
	for name, b := range map[string]*Board{
		"puzzle":   Easy(),
		"solution": EasySolution(),
	} {
		res, err := s.Interp().Call("isCompleted", []sacvm.Value{BoardToValue(b)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := res[0].AsBool(sacvm.Pos{})
		if got != b.IsCompleted() {
			t.Fatalf("%s: isCompleted = %v", name, got)
		}
	}
	b := Easy()
	opts, _ := ComputeOpts(sp, b)
	res, err := s.Interp().Call("isStuck", []sacvm.Value{BoardToValue(b), OptionsToValue(opts)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res[0].AsBool(sacvm.Pos{}); got != IsStuck(b, opts) {
		t.Fatal("isStuck differs")
	}
}

func TestSacFindMinTruesMatchesNative(t *testing.T) {
	s := sacBoxes(t)
	b := Easy()
	opts, _ := ComputeOpts(sp, b)
	res, err := s.Interp().Call("findMinTrues", []sacvm.Value{OptionsToValue(opts)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gi, _ := res[0].AsInt(sacvm.Pos{})
	gj, _ := res[1].AsInt(sacvm.Pos{})
	// The SaC version scans row-major like the native one; both must pick
	// a minimal cell (the exact cell must agree given identical order).
	ni, nj, _ := FindMinTrues(opts)
	if gi != ni || gj != nj {
		t.Fatalf("findMinTrues: sac (%d,%d) vs native (%d,%d)", gi, gj, ni, nj)
	}
}

func TestSacSolveMatchesKnownSolution(t *testing.T) {
	s := sacBoxes(t)
	b := Easy()
	opts, _ := ComputeOpts(sp, b)
	res, err := s.Interp().Call("solve", []sacvm.Value{BoardToValue(b), OptionsToValue(opts)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValueToBoard(res[0])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(EasySolution()) {
		t.Fatalf("interpreted solve produced a different board:\n%s", got)
	}
}

// The full two-layer configuration of §5: interpreted SaC boxes inside the
// Fig. 1 S-Net network.
func TestHybridFig1SolvesEasy(t *testing.T) {
	s := sacBoxes(t)
	got, stats, err := s.SolveHybrid(context.Background(), Easy())
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || !got.Equal(EasySolution()) {
		t.Fatalf("hybrid solution wrong: %v", got)
	}
	if stats.Counter("star.solve_loop.replicas") == 0 {
		t.Fatal("no unfolding recorded")
	}
	if stats.Counter("star.solve_loop.replicas") > 81 {
		t.Fatal("unfolding bound violated")
	}
}

func TestHybridRejectsNon9x9(t *testing.T) {
	s := sacBoxes(t)
	if _, _, err := s.SolveHybrid(context.Background(), NewBoard(2)); err == nil {
		t.Fatal("the paper's 9×9-specific SaC code must reject 4×4 boards")
	}
}

func TestValueConversionErrors(t *testing.T) {
	if _, err := ValueToBoard(sacvm.IntScalar(1)); err == nil {
		t.Fatal("scalar is not a board")
	}
	if _, err := ValueToOptions(sacvm.BoolScalar(true)); err == nil {
		t.Fatal("scalar is not an option cube")
	}
	if _, err := ValueToBoard(sacvm.IntValue(Easy().Cells().Reshape([]int{3, 27}))); err == nil {
		t.Fatal("non-square board accepted")
	}
	for _, v := range []int{12, -1} { // a board holding either panics in Valid
		cells := Easy().Cells().Clone()
		cells.Set(v, 4, 5)
		want := fmt.Sprintf("cell (4,5) value %d out of range", v)
		if _, err := ValueToBoard(sacvm.IntValue(cells)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("cell value %d on a 9x9 board: err %v, want one saying %q", v, err, want)
		}
	}
}
