// Package minisql is a hand-rolled SQL subset sufficient to execute the
// paper's Listing 1 (the SS2PL protocol formulated in SQL) and the other
// declarative protocols: WITH (CTEs), SELECT [DISTINCT] with qualified stars,
// comma joins, LEFT JOIN ... ON, correlated [NOT] EXISTS, IN lists, EXCEPT,
// UNION [ALL] and ORDER BY. It has no aggregates, GROUP BY, HAVING or LIMIT:
// no protocol uses them, and the parser refuses each by name. Queries are
// planned onto the internal/ra relational algebra, decorrelating EXISTS
// subqueries into hash semi/anti joins so that scheduler rounds over large
// histories stay fast.
package minisql

import (
	"fmt"
	"strconv"
	"strings"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tNumber
	tString // single-quoted SQL string
	tLParen
	tRParen
	tComma
	tDot
	tStar
	tEq
	tNe
	tLt
	tLe
	tGt
	tGe
	tPlus
	tMinus
	tSlash
	tPercent
)

type token struct {
	kind tokKind
	text string // uppercased for idents
	raw  string // original spelling
	ival int64
	pos  int
}

func (t token) String() string {
	if t.kind == tEOF {
		return "end of query"
	}
	return t.raw
}

type lexer struct {
	src string
	pos int
}

func lex(src string) ([]token, error) {
	lx := &lexer{src: src}
	var out []token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tEOF {
			return out, nil
		}
	}
}

func (lx *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("minisql: offset %d: %s", lx.pos, fmt.Sprintf(format, args...))
}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.pos++
			continue
		}
		if c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-' {
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
			continue
		}
		break
	}
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return token{kind: tEOF, pos: start}, nil
	}
	c := lx.src[lx.pos]
	simple := func(k tokKind) (token, error) {
		lx.pos++
		return token{kind: k, raw: string(c), pos: start}, nil
	}
	switch {
	case c == '(':
		return simple(tLParen)
	case c == ')':
		return simple(tRParen)
	case c == ',':
		return simple(tComma)
	case c == '.':
		return simple(tDot)
	case c == '*':
		return simple(tStar)
	case c == '+':
		return simple(tPlus)
	case c == '/':
		return simple(tSlash)
	case c == '%':
		return simple(tPercent)
	case c == '-':
		return simple(tMinus)
	case c == '=':
		return simple(tEq)
	case c == '<':
		lx.pos++
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '>' {
			lx.pos++
			return token{kind: tNe, raw: "<>", pos: start}, nil
		}
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '=' {
			lx.pos++
			return token{kind: tLe, raw: "<=", pos: start}, nil
		}
		return token{kind: tLt, raw: "<", pos: start}, nil
	case c == '>':
		lx.pos++
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '=' {
			lx.pos++
			return token{kind: tGe, raw: ">=", pos: start}, nil
		}
		return token{kind: tGt, raw: ">", pos: start}, nil
	case c == '!':
		lx.pos++
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '=' {
			lx.pos++
			return token{kind: tNe, raw: "!=", pos: start}, nil
		}
		return token{}, lx.errf("expected '=' after '!'")
	case c == '\'':
		lx.pos++
		var sb strings.Builder
		for {
			if lx.pos >= len(lx.src) {
				return token{}, lx.errf("unterminated string literal")
			}
			ch := lx.src[lx.pos]
			lx.pos++
			if ch == '\'' {
				// '' escapes a quote
				if lx.pos < len(lx.src) && lx.src[lx.pos] == '\'' {
					sb.WriteByte('\'')
					lx.pos++
					continue
				}
				break
			}
			sb.WriteByte(ch)
		}
		return token{kind: tString, text: sb.String(), raw: "'" + sb.String() + "'", pos: start}, nil
	case c >= '0' && c <= '9':
		for lx.pos < len(lx.src) && lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9' {
			lx.pos++
		}
		raw := lx.src[start:lx.pos]
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return token{}, lx.errf("bad number %q: %v", raw, err)
		}
		return token{kind: tNumber, ival: v, raw: raw, pos: start}, nil
	case isIdentByte(c):
		for lx.pos < len(lx.src) && isIdentByte(lx.src[lx.pos]) {
			lx.pos++
		}
		raw := lx.src[start:lx.pos]
		return token{kind: tIdent, text: strings.ToUpper(raw), raw: raw, pos: start}, nil
	default:
		return token{}, lx.errf("unexpected character %q", c)
	}
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
