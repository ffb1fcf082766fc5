package sacvm

import (
	"errors"
	"strings"
	"testing"
)

// A number literal means the number it spells or is refused where it stands:
// strconv's range error used to be dropped (the literal clamped, or became
// +Inf) and a non-ASCII digit lexed as part of a number strconv then read
// as 0.
func TestLiteralsAreReadOrRefused(t *testing.T) {
	for _, c := range []struct {
		expr, want string
		col        int
	}{
		{"9223372036854775808", "integer literal 9223372036854775808 out of range", 22},
		{"-9223372036854775808", "integer literal 9223372036854775808 out of range", 23},
		{"1 + 99999999999999999999", "integer literal 99999999999999999999 out of range", 26},
		{"1" + strings.Repeat("0", 400) + ".0", "out of range", 22},
		{"1٣", `unexpected character "٣"`, 23},
		{"1.٣", `unexpected character "٣"`, 24},
		{"٣ + 1", `unexpected character "٣"`, 22},
	} {
		_, err := Parse("int main() { return( " + c.expr + "); }")
		var pe *Error
		if !errors.As(err, &pe) {
			t.Errorf("%s: parsed, err = %v; want a positioned error", c.expr, err)
			continue
		}
		if !strings.Contains(pe.Msg, c.want) || pe.Pos != (Pos{1, c.col}) {
			t.Errorf("%s: got %v, want %q at 1:%d", c.expr, pe, c.want, c.col)
		}
	}
	out := run(t, "int main() { return( -9223372036854775807 - 1); }")
	if n, _ := out[0].AsInt(Pos{}); n != -9223372036854775808 {
		t.Errorf("smallest int = %d", n)
	}
}

// FuzzParse: Parse is total.  Whatever the text, it returns a program or a
// positioned *Error, and returns.  Evaluation is not fuzzed: the
// interpreter cannot be stopped inside a while(true).
func FuzzParse(f *testing.F) {
	f.Add(Prelude)
	f.Add(SudokuSaC)
	f.Add(SudokuGenSaC)
	for _, c := range goldenCorpus() {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err == nil {
			if prog == nil {
				t.Fatal("neither a program nor an error")
			}
			return
		}
		var pe *Error
		if !errors.As(err, &pe) || pe.Pos.Line < 1 || pe.Pos.Col < 1 {
			t.Fatalf("error without a position: %v", err)
		}
	})
}
