package datalog

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tokEOF      tokKind = iota
	tokIdent            // lowercase-leading identifier (predicate, keyword not)
	tokVar              // uppercase- or underscore-leading identifier
	tokWildcard         // bare _
	tokInt
	tokString
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokColonDash // :-
	tokEq        // =
	tokNe        // !=
	tokLt
	tokLe
	tokGt
	tokGe
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
)

type token struct {
	kind tokKind
	text string
	ival int64
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokInt:
		return strconv.FormatInt(t.ival, 10)
	case tokString:
		return strconv.Quote(t.text)
	default:
		return t.text
	}
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (lx *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("datalog: %d:%d: %s", lx.line, lx.col, fmt.Sprintf(format, args...))
}

func (lx *lexer) peekByte() (byte, bool) {
	if lx.pos >= len(lx.src) {
		return 0, false
	}
	return lx.src[lx.pos], true
}

func (lx *lexer) advance() byte {
	b := lx.src[lx.pos]
	lx.pos++
	if b == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return b
}

func (lx *lexer) skipSpaceAndComments() {
	for {
		b, ok := lx.peekByte()
		if !ok {
			return
		}
		switch {
		case b == ' ' || b == '\t' || b == '\r' || b == '\n':
			lx.advance()
		case b == '%': // line comment
			for {
				c, ok := lx.peekByte()
				if !ok || c == '\n' {
					break
				}
				lx.advance()
			}
		case b == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for {
				c, ok := lx.peekByte()
				if !ok || c == '\n' {
					break
				}
				lx.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(b byte) bool {
	return b == '_' || unicode.IsLetter(rune(b))
}

func isIdentPart(b byte) bool {
	return b == '_' || unicode.IsLetter(rune(b)) || unicode.IsDigit(rune(b))
}

// next returns the next token.
func (lx *lexer) next() (token, error) {
	lx.skipSpaceAndComments()
	line, col := lx.line, lx.col
	b, ok := lx.peekByte()
	if !ok {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	mk := func(k tokKind, text string) token {
		return token{kind: k, text: text, line: line, col: col}
	}
	switch {
	case b == '(':
		lx.advance()
		return mk(tokLParen, "("), nil
	case b == ')':
		lx.advance()
		return mk(tokRParen, ")"), nil
	case b == ',':
		lx.advance()
		return mk(tokComma, ","), nil
	case b == '.':
		lx.advance()
		return mk(tokDot, "."), nil
	case b == '+':
		lx.advance()
		return mk(tokPlus, "+"), nil
	case b == '*':
		lx.advance()
		return mk(tokStar, "*"), nil
	case b == '/':
		lx.advance()
		return mk(tokSlash, "/"), nil
	case b == ':':
		lx.advance()
		if c, ok := lx.peekByte(); ok && c == '-' {
			lx.advance()
			return mk(tokColonDash, ":-"), nil
		}
		return token{}, lx.errf("expected '-' after ':'")
	case b == '=':
		lx.advance()
		return mk(tokEq, "="), nil
	case b == '!':
		lx.advance()
		if c, ok := lx.peekByte(); ok && c == '=' {
			lx.advance()
			return mk(tokNe, "!="), nil
		}
		return token{}, lx.errf("expected '=' after '!'")
	case b == '<':
		lx.advance()
		if c, ok := lx.peekByte(); ok && c == '=' {
			lx.advance()
			return mk(tokLe, "<="), nil
		}
		if c, ok := lx.peekByte(); ok && c == '>' {
			lx.advance()
			return mk(tokNe, "<>"), nil
		}
		return mk(tokLt, "<"), nil
	case b == '>':
		lx.advance()
		if c, ok := lx.peekByte(); ok && c == '=' {
			lx.advance()
			return mk(tokGe, ">="), nil
		}
		return mk(tokGt, ">"), nil
	case b == '"':
		lx.advance()
		var sb strings.Builder
		for {
			c, ok := lx.peekByte()
			if !ok {
				return token{}, lx.errf("unterminated string")
			}
			lx.advance()
			if c == '"' {
				break
			}
			if c == '\\' {
				e, ok := lx.peekByte()
				if !ok {
					return token{}, lx.errf("unterminated escape")
				}
				lx.advance()
				switch e {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '"':
					sb.WriteByte('"')
				case '\\':
					sb.WriteByte('\\')
				default:
					return token{}, lx.errf("unknown escape \\%c", e)
				}
				continue
			}
			sb.WriteByte(c)
		}
		t := mk(tokString, sb.String())
		return t, nil
	case b == '-':
		lx.advance()
		if c, ok := lx.peekByte(); ok && c >= '0' && c <= '9' {
			return lx.lexInt(line, col, true)
		}
		return mk(tokMinus, "-"), nil
	case b >= '0' && b <= '9':
		return lx.lexInt(line, col, false)
	case isIdentStart(b):
		start := lx.pos
		for {
			c, ok := lx.peekByte()
			if !ok || !isIdentPart(c) {
				break
			}
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if text == "_" {
			return mk(tokWildcard, "_"), nil
		}
		first := text[0]
		if first == '_' || unicode.IsUpper(rune(first)) {
			return mk(tokVar, text), nil
		}
		return mk(tokIdent, text), nil
	default:
		return token{}, lx.errf("unexpected character %q", b)
	}
}

func (lx *lexer) lexInt(line, col int, neg bool) (token, error) {
	start := lx.pos
	for {
		c, ok := lx.peekByte()
		if !ok || c < '0' || c > '9' {
			break
		}
		lx.advance()
	}
	text := lx.src[start:lx.pos]
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, lx.errf("bad integer %q: %v", text, err)
	}
	if neg {
		v = -v
	}
	return token{kind: tokInt, text: text, ival: v, line: line, col: col}, nil
}
