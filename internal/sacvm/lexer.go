// Package sacvm implements an interpreter for Core SaC as described in §2
// of the paper: a functional, side-effect free variant of C extended with
// n-dimensional state-less arrays and with-loop array comprehensions
// (genarray, modarray, fold).
//
// The subset covers everything the paper's programs use: multi-value
// returns, assignment sequences (interpreted as nested let-expressions),
// branches, for/while loops (syntactic sugar for tail recursion), array
// literals, vector and multi-scalar selection, user-defined infix ++, and
// the snet_out interface function for embedding functions as S-Net boxes.
// With-loops execute data-parallel on an internal/sched pool, standing in
// for SaC's multithreaded code generation.
package sacvm

import (
	"fmt"
	"strings"
	"unicode"
)

// Pos is a 1-based source position.
type Pos struct{ Line, Col int }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a lex, parse or evaluation failure.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("sac: %s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

type kind int

const (
	tEOF kind = iota
	tIdent
	tInt
	tDouble
	tLBrace
	tRBrace
	tLParen
	tRParen
	tLBrack
	tRBrack
	tComma
	tSemi
	tColon
	tDot
	tAssign
	tPlus
	tMinus
	tStar
	tSlash
	tPercent
	tPlusPlus // vector concatenation / postfix increment
	tEq
	tNeq
	tLt
	tLe
	tGt
	tGe
	tAnd
	tOr
	tNot
)

var kindName = map[kind]string{
	tEOF: "end of input", tIdent: "identifier", tInt: "integer", tDouble: "double",
	tLBrace: "'{'", tRBrace: "'}'", tLParen: "'('", tRParen: "')'",
	tLBrack: "'['", tRBrack: "']'", tComma: "','", tSemi: "';'", tColon: "':'", tDot: "'.'",
	tAssign: "'='", tPlus: "'+'", tMinus: "'-'", tStar: "'*'", tSlash: "'/'",
	tPercent: "'%'", tPlusPlus: "'++'", tEq: "'=='", tNeq: "'!='",
	tLt: "'<'", tLe: "'<='", tGt: "'>'", tGe: "'>='",
	tAnd: "'&&'", tOr: "'||'", tNot: "'!'",
}

func (k kind) String() string { return kindName[k] }

type tok struct {
	kind kind
	text string
	pos  Pos
}

func isDigit(r rune) bool { return '0' <= r && r <= '9' }

func lexAll(src string) ([]tok, error) {
	runes := []rune(src)
	var toks []tok
	line, col := 1, 1
	i := 0
	adv := func() rune {
		r := runes[i]
		i++
		if r == '\n' {
			line++
			col = 1
		} else {
			col++
		}
		return r
	}
	peekAt := func(off int) rune {
		if i+off >= len(runes) {
			return 0
		}
		return runes[i+off]
	}
	for {
		// skip whitespace and comments
		for i < len(runes) {
			r := runes[i]
			if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
				adv()
				continue
			}
			if r == '/' && peekAt(1) == '/' {
				for i < len(runes) && runes[i] != '\n' {
					adv()
				}
				continue
			}
			if r == '/' && peekAt(1) == '*' {
				start := Pos{line, col}
				adv()
				adv()
				closed := false
				for i < len(runes) {
					if runes[i] == '*' && peekAt(1) == '/' {
						adv()
						adv()
						closed = true
						break
					}
					adv()
				}
				if !closed {
					return nil, errf(start, "unterminated comment")
				}
				continue
			}
			break
		}
		pos := Pos{line, col}
		if i >= len(runes) {
			toks = append(toks, tok{kind: tEOF, pos: pos})
			return toks, nil
		}
		r := runes[i]
		switch {
		case r == '_' || unicode.IsLetter(r):
			var b strings.Builder
			for i < len(runes) && (runes[i] == '_' || unicode.IsLetter(runes[i]) || unicode.IsDigit(runes[i])) {
				b.WriteRune(adv())
			}
			toks = append(toks, tok{kind: tIdent, text: b.String(), pos: pos})
			continue
		case isDigit(r):
			// A number is ASCII digits: strconv reads nothing else, and any
			// other digit is a character the language does not have.
			var b strings.Builder
			isDouble := false
			for isDigit(peekAt(0)) {
				b.WriteRune(adv())
			}
			if peekAt(0) == '.' && isDigit(peekAt(1)) {
				isDouble = true
				b.WriteRune(adv())
				for isDigit(peekAt(0)) {
					b.WriteRune(adv())
				}
			}
			k := tInt
			if isDouble {
				k = tDouble
			}
			toks = append(toks, tok{kind: k, text: b.String(), pos: pos})
			continue
		}
		two := func(k kind) {
			adv()
			adv()
			toks = append(toks, tok{kind: k, pos: pos})
		}
		one := func(k kind) {
			adv()
			toks = append(toks, tok{kind: k, pos: pos})
		}
		switch r {
		case '{':
			one(tLBrace)
		case '}':
			one(tRBrace)
		case '(':
			one(tLParen)
		case ')':
			one(tRParen)
		case '[':
			one(tLBrack)
		case ']':
			one(tRBrack)
		case ',':
			one(tComma)
		case ';':
			one(tSemi)
		case ':':
			one(tColon)
		case '.':
			one(tDot)
		case '+':
			if peekAt(1) == '+' {
				two(tPlusPlus)
			} else {
				one(tPlus)
			}
		case '-':
			one(tMinus)
		case '*':
			one(tStar)
		case '/':
			one(tSlash)
		case '%':
			one(tPercent)
		case '=':
			if peekAt(1) == '=' {
				two(tEq)
			} else {
				one(tAssign)
			}
		case '!':
			if peekAt(1) == '=' {
				two(tNeq)
			} else {
				one(tNot)
			}
		case '<':
			if peekAt(1) == '=' {
				two(tLe)
			} else {
				one(tLt)
			}
		case '>':
			if peekAt(1) == '=' {
				two(tGe)
			} else {
				one(tGt)
			}
		case '&':
			if peekAt(1) == '&' {
				two(tAnd)
			} else {
				return nil, errf(pos, "unexpected '&'")
			}
		case '|':
			if peekAt(1) == '|' {
				two(tOr)
			} else {
				return nil, errf(pos, "unexpected '|'")
			}
		default:
			return nil, errf(pos, "unexpected character %q", string(r))
		}
	}
}
