package core

import "fmt"

// Network type inference (§4: "type inference algorithms developed for S-Net
// take full account of subtyping and flow inheritance").
//
// Inference here is necessarily an approximation: flow inheritance can add
// arbitrary labels at runtime, so a variant produced upstream may carry more
// labels than its static type.  The checker therefore distinguishes definite
// acceptance (some input variant is a subset of the producer's variant) from
// possible acceptance via inheritance, reporting the latter as warnings and
// outright impossibilities as errors.

// Diagnostic is one finding of the network checker.
type Diagnostic struct {
	Node    string
	Warning bool // false = error
	Msg     string
}

func (d Diagnostic) String() string {
	kind := "error"
	if d.Warning {
		kind = "warning"
	}
	return fmt.Sprintf("%s: %s: %s", kind, d.Node, d.Msg)
}

type checker struct {
	diags []Diagnostic
}

func (c *checker) errorf(node, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Node: node, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) warnf(node, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{Node: node, Warning: true, Msg: fmt.Sprintf(format, args...)})
}

// checkSerial validates A..B: every output variant of A should be accepted
// by some input variant of B.
func (c *checker) checkSerial(n *serialNode, aOut, bIn RecType) {
	for _, v := range aOut {
		definite, possible := false, false
		for _, w := range bIn {
			if w.SubsetOf(v) {
				definite = true
				break
			}
			// Inheritance can only add labels, never remove, so
			// acceptance is possible iff the missing labels could
			// arrive by inheritance — conservatively always
			// possible; impossibility cannot be proven for
			// non-empty w \ v, so report a warning.
			possible = true
		}
		switch {
		case definite:
		case possible:
			c.warnf(n.label,
				"output variant %s is not statically accepted by %s; acceptance relies on flow inheritance",
				v, bIn)
		default:
			c.errorf(n.label, "output variant %s cannot be accepted by %s", v, bIn)
		}
	}
}

// checkStar warns when the operand's output can never reach the exit
// pattern (a chain that can only grow).
func (c *checker) checkStar(n *starNode, opOut RecType) {
	for _, v := range opOut {
		if n.exit.Variant.SubsetOf(v) {
			return // some output variant statically matches the exit
		}
	}
	c.warnf(n.label,
		"no operand output variant statically matches exit pattern %s; termination relies on flow inheritance or guards",
		n.exit)
}
