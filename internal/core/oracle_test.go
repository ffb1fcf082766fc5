package core

import "fmt"

// Reference implementations the compiled artifacts are tested against.  They
// are what the runtime executed before routing and filters were compiled to
// tables and slot programs; no production code reaches them.

// evalTagRec is the tree evaluator of tag expressions, as the runtime walked it
// per record before expressions were compiled per shape (tagexpr.go): the
// oracle of the tag-program tests (tagprog_test.go) and of Apply below.
func evalTagRec(e TagExpr, r *Record) (int, error) {
	switch e := e.(type) {
	case intLit:
		return int(e), nil
	case tagRef:
		if v, ok := r.Tag(e.name); ok {
			return v, nil
		}
		return 0, &EvalError{Expr: e.String(), Msg: "tag not present in record"}
	case *unaryExpr:
		v, err := evalTagRec(e.x, r)
		if err != nil {
			return 0, err
		}
		if e.op == '-' {
			return -v, nil
		}
		return btoi(v == 0), nil
	case *binExpr:
		a, err := evalTagRec(e.x, r)
		if err != nil {
			return 0, err
		}
		switch op := tokNames[e.op]; {
		case op == "&&" && a == 0:
			return 0, nil
		case op == "||" && a != 0:
			return 1, nil
		}
		b, err := evalTagRec(e.y, r)
		if err != nil {
			return 0, err
		}
		switch tokNames[e.op] {
		case "&&", "||":
			return btoi(b != 0), nil
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, &EvalError{Expr: e.String(), Msg: "division by zero"}
			}
			return a / b, nil
		case "%":
			if b == 0 {
				return 0, &EvalError{Expr: e.String(), Msg: "modulo by zero"}
			}
			return a % b, nil
		case "==":
			return btoi(a == b), nil
		case "!=":
			return btoi(a != b), nil
		case "<":
			return btoi(a < b), nil
		case "<=":
			return btoi(a <= b), nil
		case ">":
			return btoi(a > b), nil
		case ">=":
			return btoi(a >= b), nil
		}
	}
	return 0, &EvalError{Expr: e.String(), Msg: fmt.Sprintf("%T is not an expression this package built", e)}
}

// Apply is the filter specification interpreted label by label: the oracle
// of TestFilterProgramEquivalence.  It builds the output records for one
// matching input record, resolving every item against the record itself.
func (f *FilterSpec) Apply(rec *Record) ([]*Record, error) {
	var outs []*Record
	for _, items := range f.Outputs {
		o := NewRecord()
		outs = append(outs, o)
		for _, it := range items {
			if it.IsTag {
				switch {
				case it.Expr != nil:
					v, err := evalTagRec(it.Expr, rec)
					if err != nil {
						return nil, fmt.Errorf("filter %s: %w", f, err)
					}
					o.SetTag(it.Name, v)
				default:
					if v, ok := rec.Tag(it.Name); ok && f.Pattern.Variant.Has(Tag(it.Name)) {
						o.SetTag(it.Name, v)
					} else {
						o.SetTag(it.Name, 0)
					}
				}
				continue
			}
			v, ok := rec.Field(it.Src)
			if !ok {
				return nil, fmt.Errorf("filter %s: input record %s has no field %q", f, rec, it.Src)
			}
			o.SetField(it.Name, v)
		}
		inheritByName(o, rec, f.Pattern.Variant)
	}
	return outs, nil
}

// score is a filter branch's routing score under the scoring dispatcher: a
// guarded filter only attracts records its guard admits.
func (f *filterNode) score(rec *Record) int {
	if !f.spec.Pattern.Matches(rec) {
		return -1
	}
	return len(f.spec.Pattern.Variant)
}

// MatchScore scores how well a record's label set matches a multivariant
// input type: the size of the largest variant that the record satisfies
// (variant ⊆ record labels), or -1 if no variant matches — the paper's
// "better match" rule as the scoring dispatcher applied it per record.
func MatchScore(rec *Record, t RecType) int {
	best := -1
	for _, v := range t {
		if len(v) > best && v.SubsetOf(rec.shape.variant) {
			best = len(v)
		}
	}
	return best
}

// legacyScorers is the pre-table routing path: one closure per branch
// rescoring every record — the oracle of TestDispatchMatchesLegacy and the
// baseline of BenchmarkRouting.
func legacyScorers(branches []Node) []func(*Record) int {
	scorers := make([]func(*Record) int, len(branches))
	for i, b := range branches {
		if f, ok := b.(*filterNode); ok {
			scorers[i] = f.score
		} else {
			t, _ := b.sig()
			scorers[i] = func(r *Record) int { return MatchScore(r, t) }
		}
	}
	return scorers
}

// legacyDispatch is the per-record scoring loop the dispatch table replaced.
func legacyDispatch(scorers []func(*Record) int, rec *Record, det bool, rr *int) int {
	best, count := -1, 0
	for _, sc := range scorers {
		if s := sc(rec); s > best {
			best, count = s, 1
		} else if s == best && s >= 0 {
			count++
		}
	}
	if best < 0 {
		return -1
	}
	pick := 0
	if !det && count > 1 {
		pick = *rr % count
		*rr++
	}
	for i, sc := range scorers {
		if sc(rec) == best {
			if pick == 0 {
				return i
			}
			pick--
		}
	}
	return -1
}
