package core

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The token grammar of the S-Net notation.  Every piece of S-Net text goes
// through this one lexer: the strings of the Go API — box signatures
// "(a,<b>) -> (c) | (c,d,<e>)", patterns "{board, <done>}", guarded patterns
// "{<level>} | <level> > 40", filters
// "[{a,b,<c>} -> {a,z=a,<t>}; {b,a=b,<c>=<c>+1}]", tag expressions "<k>%4+1"
// — and whole .snet programs (internal/lang), which add the combinator
// tokens ".." "**" "!!" "[|" "|]".  Identifiers are UTF-8 letters, digits
// and '_'; "//" and "/* */" comments are white space.
//
// Two subtleties.  A '<' immediately followed by an identifier and '>' lexes
// as one TokTagName, so "<c>=<c>+1" tokenises as tag(c) '=' tag(c) '+' 1
// rather than tripping over ">=".  And the longest match wins everywhere, so
// "!!" and "||" are single tokens whichever production reads them: a tag
// expression takes "!!" as two negations and "||" as logical or, a network
// expression as the split and parallel combinators.

// TokKind classifies a token, in one byte: an operator's kind is also what a
// tag expression and its compiled program carry (tagexpr.go).
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokTagName // <ident>
	TokLBrace
	TokRBrace
	TokLParen
	TokRParen
	TokLBrack
	TokRBrack
	TokSyncOpen  // [|
	TokSyncClose // |]
	TokComma
	TokSemi
	TokAssign // =
	TokArrow  // ->
	TokDots   // ..
	TokPipe   // |
	TokOrOr   // ||
	TokStar
	TokStarStar
	TokNot
	TokNotNot
	TokPlus
	TokMinus
	TokSlash
	TokPercent
	TokEq  // ==
	TokNeq // !=
	TokLt
	TokLe
	TokGt
	TokGe
	TokAndAnd
)

// tokNames holds the four token classes by name and every operator and
// bracket by its spelling — the one place a spelling is written down: the
// lexer's lookup tables are built from it and error messages quote it.
var tokNames = [...]string{
	TokEOF: "end of input", TokIdent: "identifier", TokInt: "integer", TokTagName: "tag",
	TokLBrace: "{", TokRBrace: "}", TokLParen: "(", TokRParen: ")",
	TokLBrack: "[", TokRBrack: "]", TokSyncOpen: "[|", TokSyncClose: "|]",
	TokComma: ",", TokSemi: ";", TokAssign: "=", TokArrow: "->", TokDots: "..",
	TokPipe: "|", TokOrOr: "||", TokStar: "*", TokStarStar: "**",
	TokNot: "!", TokNotNot: "!!", TokPlus: "+", TokMinus: "-",
	TokSlash: "/", TokPercent: "%", TokEq: "==", TokNeq: "!=",
	TokLt: "<", TokLe: "<=", TokGt: ">", TokGe: ">=", TokAndAnd: "&&",
}

// punct1 and punct2 map the one- and two-character spellings to their
// tokens (TokEOF, the zero kind: none).
var (
	punct1 [128]TokKind
	punct2 = map[string]TokKind{}
)

func init() {
	for k := TokTagName + 1; int(k) < len(tokNames); k++ {
		if s := tokNames[k]; len(s) == 1 {
			punct1[s[0]] = k
		} else {
			punct2[s] = k
		}
	}
}

func (k TokKind) String() string {
	if k <= TokTagName {
		return tokNames[k]
	}
	return "'" + tokNames[k] + "'"
}

// Token is one lexeme.  Pos is its byte offset in the source; Line and Col
// are the same place 1-based, columns counted in characters.
type Token struct {
	Kind      TokKind
	Text      string // identifier / tag name / integer literal
	Pos       int
	Line, Col int
}

// SyntaxError reports a failure to lex or parse S-Net text.  Pos is a byte
// offset into Input; LineCol converts it to the 1-based line/column pair,
// which Error uses for multi-line inputs (a bare offset into a multi-line
// source is useless past the first line).
type SyntaxError struct {
	Input string
	Pos   int
	Msg   string
}

// LineCol returns the 1-based line and column (in characters) of the error
// offset.
func (e *SyntaxError) LineCol() (line, col int) {
	head := e.Input[:min(e.Pos, len(e.Input))]
	start := strings.LastIndexByte(head, '\n') + 1
	return strings.Count(head, "\n") + 1, utf8.RuneCountInString(head[start:]) + 1
}

// errorLine returns the line of Input the error offset falls on.
func (e *SyntaxError) errorLine() string {
	start := strings.LastIndexByte(e.Input[:min(e.Pos, len(e.Input))], '\n') + 1
	end := strings.IndexByte(e.Input[start:], '\n')
	if end < 0 {
		return e.Input[start:]
	}
	return e.Input[start : start+end]
}

func (e *SyntaxError) Error() string {
	if strings.ContainsRune(e.Input, '\n') {
		line, col := e.LineCol()
		return fmt.Sprintf("core: syntax error at %d:%d in %q: %s", line, col, e.errorLine(), e.Msg)
	}
	return fmt.Sprintf("core: syntax error at %d in %q: %s", e.Pos, e.Input, e.Msg)
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool  { return isIdentStart(r) || unicode.IsDigit(r) }

// identEnd returns the offset just past the identifier starting at i, or i
// if none starts there.
func identEnd(src string, i int) int {
	j := i
	for j < len(src) {
		r, n := rune(src[j]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(src[j:])
		}
		if !isIdentPart(r) || (j == i && !isIdentStart(r)) {
			break
		}
		j += n
	}
	return j
}

// skipSpace returns the offset of the next token at or after i: past white
// space and comments.  An unterminated block comment is the one error.
func skipSpace(src string, i int) (int, error) {
	for i < len(src) {
		switch c := src[i]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '/' && strings.HasPrefix(src[i:], "//"):
			if nl := strings.IndexByte(src[i:], '\n'); nl >= 0 {
				i += nl
			} else {
				i = len(src)
			}
		case c == '/' && strings.HasPrefix(src[i:], "/*"):
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return i, &SyntaxError{Input: src, Pos: i, Msg: "unterminated block comment"}
			}
			i += 2 + end + 2
		default:
			return i, nil
		}
	}
	return i, nil
}

// lex turns S-Net text into tokens, the last of them TokEOF.
func lex(src string) ([]Token, error) {
	toks := make([]Token, 0, len(src)/2+1)
	// (mark, line, col) is a known position; each token advances it over the
	// text skipped since, so positions cost one pass over the source.
	mark, line, col := 0, 1, 1
	for i := 0; ; {
		start, err := skipSpace(src, i)
		if err != nil {
			return nil, err
		}
		gap := src[mark:start]
		if nl := strings.LastIndexByte(gap, '\n'); nl >= 0 {
			line, col, gap = line+strings.Count(gap, "\n"), 1, gap[nl+1:]
		}
		mark, col = start, col+utf8.RuneCountInString(gap)
		t := Token{Pos: start, Line: line, Col: col}
		if start == len(src) {
			return append(toks, t), nil
		}
		c := src[start]
		i = identEnd(src, start)
		switch {
		case i > start:
			t.Kind, t.Text = TokIdent, src[start:i]
		case c >= '0' && c <= '9':
			for i++; i < len(src) && src[i] >= '0' && src[i] <= '9'; i++ {
			}
			t.Kind, t.Text = TokInt, src[start:i]
		default:
			// The atomic tag form <ident>, else the longest operator.
			end := start
			if c == '<' {
				end = identEnd(src, start+1)
			}
			if end > start+1 && end < len(src) && src[end] == '>' {
				t.Kind, t.Text, i = TokTagName, src[start+1:end], end+1
			} else if k, ok := punct2[src[start:min(start+2, len(src))]]; ok {
				t.Kind, i = k, start+2
			} else if c < utf8.RuneSelf && punct1[c] != TokEOF {
				t.Kind, i = punct1[c], start+1
			} else {
				r, _ := utf8.DecodeRuneInString(src[start:])
				return nil, &SyntaxError{Input: src, Pos: start, Msg: fmt.Sprintf("unexpected character %q", string(r))}
			}
		}
		toks = append(toks, t)
	}
}

// Parser is a token cursor over one S-Net text together with the productions
// every textual form shares, each a method beside the type it builds: Label
// and Variant and Pattern (pattern.go), LabelTuple and Signature
// (signature.go), Filter (filterspec.go), TagExpr (tagexpr.go).  The parser
// of .snet programs (internal/lang) embeds it and adds only declarations and
// network expressions.  Every error it reports is a *SyntaxError.
type Parser struct {
	src  string
	toks []Token
	i    int
}

// NewParser tokenises src and positions the cursor on its first token.
func NewParser(src string) (*Parser, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return &Parser{src: src, toks: toks}, nil
}

func (p *Parser) Peek() Token       { return p.toks[p.i] }
func (p *Parser) Take() Token       { t := p.toks[p.i]; p.i++; return t }
func (p *Parser) At(k TokKind) bool { return p.toks[p.i].Kind == k }

func (p *Parser) Accept(k TokKind) bool {
	if p.At(k) {
		p.i++
		return true
	}
	return false
}

func (p *Parser) Expect(k TokKind) (Token, error) {
	if !p.At(k) {
		return Token{}, p.Errf("expected %v, found %v", k, p.Peek().Kind)
	}
	return p.Take(), nil
}

// Errf reports an error at the current token.
func (p *Parser) Errf(format string, args ...any) error {
	return p.errAt(p.Peek(), format, args...)
}

func (p *Parser) errAt(t Token, format string, args ...any) error {
	return &SyntaxError{Input: p.src, Pos: t.Pos, Msg: fmt.Sprintf(format, args...)}
}

// list parses open, items separated by commas, close — or open close, the
// empty list: the one list production, of variants, label tuples and filter
// outputs.
func (p *Parser) list(open, close TokKind, item func() error) error {
	if _, err := p.Expect(open); err != nil || p.Accept(close) {
		return err
	}
	for {
		if err := item(); err != nil {
			return err
		}
		if !p.Accept(TokComma) {
			_, err := p.Expect(close)
			return err
		}
	}
}

// parseAll runs one production over the whole of src.
func parseAll[T any](src string, production func(*Parser) (T, error)) (T, error) {
	var zero T
	p, err := NewParser(src)
	if err != nil {
		return zero, err
	}
	v, err := production(p)
	if err != nil {
		return zero, err
	}
	if !p.At(TokEOF) {
		return zero, p.Errf("trailing input")
	}
	return v, nil
}

// must backs the MustParse* forms: literals in code panic on a syntax error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
