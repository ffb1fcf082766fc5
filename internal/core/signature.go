package core

import (
	"slices"
	"strings"
)

// BoxSignature declares a box interface (§4 of the paper):
//
//	box foo (a,<b>) -> (c) | (c,d,<e>)
//
// The input is an ordered tuple of labels — the order defines the argument
// order of the box function.  The output is a disjunction of ordered tuples
// — the order defines the argument order of snet_out for that variant.
// Dropping the ordering yields the box's type signature
// ({a,<b>} -> {c} | {c,d,<e>}) used for routing and inference.
type BoxSignature struct {
	In  []Label
	Out [][]Label
}

// InType returns the (single-variant) input type of the signature.
func (s *BoxSignature) InType() RecType { return RecType{NewVariant(s.In...)} }

// OutType returns the multivariant output type of the signature.
func (s *BoxSignature) OutType() RecType {
	out := make(RecType, len(s.Out))
	for i, vs := range s.Out {
		out[i] = NewVariant(vs...)
	}
	return out
}

func labelTuple(ls []Label) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = l.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func (s *BoxSignature) String() string {
	outs := make([]string, len(s.Out))
	for i, o := range s.Out {
		outs[i] = labelTuple(o)
	}
	return labelTuple(s.In) + " -> " + strings.Join(outs, " | ")
}

// ParseSignature parses the paper's box signature notation, e.g.
// "(a,<b>) -> (c) | (c,d,<e>)".
func ParseSignature(src string) (*BoxSignature, error) { return parseAll(src, (*Parser).Signature) }

// MustParseSignature is ParseSignature panicking on error.
func MustParseSignature(src string) *BoxSignature { return must(ParseSignature(src)) }

// Signature parses an input tuple, "->" and the '|'-separated output tuples.
func (p *Parser) Signature() (*BoxSignature, error) {
	in, err := p.LabelTuple()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(TokArrow); err != nil {
		return nil, err
	}
	sig := &BoxSignature{In: in}
	for {
		o, err := p.LabelTuple()
		if err != nil {
			return nil, err
		}
		sig.Out = append(sig.Out, o)
		if !p.Accept(TokPipe) {
			return sig, nil
		}
	}
}

// LabelTuple parses "(a, <b>, c)"; the empty tuple "()" is allowed, a label
// given twice is not (the tuple is a box's argument list).
func (p *Parser) LabelTuple() ([]Label, error) {
	var out []Label
	err := p.list(TokLParen, TokRParen, func() error {
		at := p.Peek()
		l, err := p.Label()
		if err == nil && slices.Contains(out, l) {
			err = p.errAt(at, "duplicate label %s", l)
		}
		out = append(out, l)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
