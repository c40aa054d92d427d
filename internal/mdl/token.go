// Package mdl implements Paradyn's Metric Description Language: the
// extension language users write new metrics and resource constraints in
// (§4, Fig 2). The package contains a lexer, parser, and compiler that turn
// MDL source into executable instrumentation — probe handlers inserted into
// running processes — plus the standard metric library covering the paper's
// Table 1 RMA metrics and the MPI-1 metrics the Performance Consultant uses.
// A Paradyn Configuration Language (PCL) file is the same language, so
// every error in one names a line of the file itself.
package mdl

import "fmt"

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString // "..."
	tokNumber
	tokLBrace // {
	tokRBrace // }
	tokLParen // (
	tokRParen // )
	tokLBracket
	tokRBracket
	tokSemi
	tokComma
	tokPath     // /SyncObject/Window or /SyncObject/Message/*
	tokDollar   // $
	tokSnippet  // (* ... *) raw instrumentation code
	tokPlusPlus // ++
	tokPlusEq   // +=
	tokAssign   // =
	tokEq       // ==
	tokNe       // !=
	tokStar     // *
	tokPlus     // +
	tokAmp      // &
	tokDot      // .
	tokGe       // >=
	tokLe       // <=
	tokGt       // >
	tokLt       // <
)

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	return fmt.Sprintf("%d:%q", t.kind, t.text)
}

// lexer tokenizes MDL source. The unusual part is the (* ... *) snippet
// delimiter: instrumentation code blocks are lexed twice — once as a raw
// snippet token to find the block, then statement-lexed by the parser.
type lexer struct {
	src  string
	pos  int
	line int
	// inSnippet switches the lexer into statement mode, where '/' is not a
	// path starter.
	inSnippet bool
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token.
func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			return lx.lexToken()
		}
	}
	return token{kind: tokEOF, line: lx.line}, nil
}

func (lx *lexer) lexToken() (token, error) {
	start, line := lx.pos, lx.line
	c := lx.src[lx.pos]
	mk := func(k tokKind, n int) (token, error) {
		lx.pos += n
		return token{kind: k, text: lx.src[start : start+n], line: line}, nil
	}
	switch {
	case c == '(' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
		return lx.lexSnippet()
	case isIdentStart(c):
		for lx.pos < len(lx.src) && isIdentChar(lx.src[lx.pos]) {
			lx.pos++
		}
		return token{kind: tokIdent, text: lx.src[start:lx.pos], line: line}, nil
	case isDigit(c) || (c == '-' || c == '+') && !lx.inSnippet && isDigit(lx.peekAt(1)):
		// [sign] digits [e [sign] digits]; a leading sign only outside
		// snippets, which have no subtraction (a PCL tunable such as -5).
		for lx.pos++; lx.pos < len(lx.src); lx.pos++ {
			if d := lx.src[lx.pos]; !isDigit(d) && d != '.' && d != 'e' && !((d == '-' || d == '+') && lx.src[lx.pos-1] == 'e') {
				break
			}
		}
		return token{kind: tokNumber, text: lx.src[start:lx.pos], line: line}, nil
	case c == '"':
		lx.pos++
		for lx.pos < len(lx.src) && lx.src[lx.pos] != '"' {
			if lx.src[lx.pos] == '\n' {
				return token{}, fmt.Errorf("mdl:%d: unterminated string", line)
			}
			lx.pos++
		}
		if lx.pos >= len(lx.src) {
			return token{}, fmt.Errorf("mdl:%d: unterminated string", line)
		}
		lx.pos++
		return token{kind: tokString, text: lx.src[start+1 : lx.pos-1], line: line}, nil
	case c == '/' && !lx.inSnippet:
		// A resource path: /Comp/Comp or /Comp/*
		lx.pos++
		for lx.pos < len(lx.src) {
			d := lx.src[lx.pos]
			if isIdentChar(d) || d == '/' || d == '-' || d == '*' {
				lx.pos++
			} else {
				break
			}
		}
		return token{kind: tokPath, text: lx.src[start:lx.pos], line: line}, nil
	case c == '{':
		return mk(tokLBrace, 1)
	case c == '}':
		return mk(tokRBrace, 1)
	case c == '(':
		return mk(tokLParen, 1)
	case c == ')':
		return mk(tokRParen, 1)
	case c == '[':
		return mk(tokLBracket, 1)
	case c == ']':
		return mk(tokRBracket, 1)
	case c == ';':
		return mk(tokSemi, 1)
	case c == ',':
		return mk(tokComma, 1)
	case c == '$':
		return mk(tokDollar, 1)
	case c == '.':
		return mk(tokDot, 1)
	case c == '*':
		return mk(tokStar, 1)
	case c == '&':
		return mk(tokAmp, 1)
	case c == '+':
		if lx.peekAt(1) == '+' {
			return mk(tokPlusPlus, 2)
		}
		if lx.peekAt(1) == '=' {
			return mk(tokPlusEq, 2)
		}
		return mk(tokPlus, 1)
	case c == '=':
		if lx.peekAt(1) == '=' {
			return mk(tokEq, 2)
		}
		return mk(tokAssign, 1)
	case c == '!':
		if lx.peekAt(1) == '=' {
			return mk(tokNe, 2)
		}
		return token{}, fmt.Errorf("mdl:%d: unexpected '!'", line)
	case c == '>':
		if lx.peekAt(1) == '=' {
			return mk(tokGe, 2)
		}
		return mk(tokGt, 1)
	case c == '<':
		if lx.peekAt(1) == '=' {
			return mk(tokLe, 2)
		}
		return mk(tokLt, 1)
	default:
		return token{}, fmt.Errorf("mdl:%d: unexpected character %q", line, string(c))
	}
}

func (lx *lexer) peekAt(n int) byte {
	if lx.pos+n < len(lx.src) {
		return lx.src[lx.pos+n]
	}
	return 0
}

// lexSnippet captures a (* ... *) instrumentation block as one raw token;
// the parser re-lexes its contents in snippet mode.
func (lx *lexer) lexSnippet() (token, error) {
	line := lx.line
	lx.pos += 2 // skip (*
	start := lx.pos
	for lx.pos+1 < len(lx.src) {
		if lx.src[lx.pos] == '*' && lx.src[lx.pos+1] == ')' {
			text := lx.src[start:lx.pos]
			lx.pos += 2
			return token{kind: tokSnippet, text: text, line: line}, nil
		}
		if lx.src[lx.pos] == '\n' {
			lx.line++
		}
		lx.pos++
	}
	return token{}, fmt.Errorf("mdl:%d: unterminated (* ... *) block", line)
}

// lexAll tokenizes an entire source (snippet mode per inSnippet).
func lexAll(src string, snippetMode bool) ([]token, error) {
	lx := newLexer(src)
	lx.inSnippet = snippetMode
	var toks []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
