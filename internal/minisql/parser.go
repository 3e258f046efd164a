package minisql

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Parse parses one SQL statement.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tEOF {
		return nil, p.errf("trailing input starting at %s", p.cur())
	}
	return q, nil
}

// MustParse is Parse that panics on error; for embedded protocol queries.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("minisql: near %q: %s", p.cur().raw, fmt.Sprintf(format, args...))
}

func (p *parser) kw(word string) bool {
	return p.cur().kind == tIdent && p.cur().text == word
}

func (p *parser) acceptKw(word string) bool {
	if p.kw(word) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKw(word string) error {
	if !p.acceptKw(word) {
		return p.errf("expected %s", word)
	}
	return nil
}

func (p *parser) expect(k tokKind, what string) error {
	if p.cur().kind != k {
		return p.errf("expected %s", what)
	}
	p.advance()
	return nil
}

var reservedWords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "EXISTS": true, "IN": true, "IS": true, "NULL": true,
	"DISTINCT": true, "AS": true, "ON": true, "LEFT": true, "OUTER": true,
	"JOIN": true, "UNION": true, "EXCEPT": true, "ALL": true, "WITH": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true, "LIMIT": true,
	"INNER": true, "GROUP": true, "HAVING": true,
}

// refuseClause fails on a clause outside the subset, naming it. The
// protocols are joins, negation, set operations and ORDER BY; none groups,
// filters groups or truncates, so GROUP BY, HAVING and LIMIT stay reserved
// words and are refused here rather than read as an alias or trailing input.
func (p *parser) refuseClause() error {
	switch {
	case p.kw("GROUP"):
		return p.errf("GROUP BY is not supported")
	case p.kw("HAVING"), p.kw("LIMIT"):
		return p.errf("%s is not supported", p.cur().text)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if p.acceptKw("WITH") {
		for {
			if p.cur().kind != tIdent {
				return nil, p.errf("expected CTE name")
			}
			name := strings.ToLower(p.advance().raw)
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			if err := p.expect(tLParen, "'('"); err != nil {
				return nil, err
			}
			sub, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tRParen, "')'"); err != nil {
				return nil, err
			}
			q.With = append(q.With, CTE{Name: name, Query: sub})
			if p.cur().kind == tComma {
				p.advance()
				continue
			}
			break
		}
	}
	body, err := p.parseSetExpr()
	if err != nil {
		return nil, err
	}
	q.Body = body
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			q.OrderBy = append(q.OrderBy, item)
			if p.cur().kind == tComma {
				p.advance()
				continue
			}
			break
		}
	}
	if err := p.refuseClause(); err != nil {
		return nil, err
	}
	return q, nil
}

// parseSetExpr parses term { (UNION [ALL] | EXCEPT) term }, left-associative
// with equal precedence, matching SQL.
func (p *parser) parseSetExpr() (SetExpr, error) {
	left, err := p.parseSetTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.kw("UNION"):
			p.advance()
			all := p.acceptKw("ALL")
			right, err := p.parseSetTerm()
			if err != nil {
				return nil, err
			}
			left = &SetOp{Op: OpUnion, All: all, L: left, R: right}
		case p.kw("EXCEPT"):
			p.advance()
			right, err := p.parseSetTerm()
			if err != nil {
				return nil, err
			}
			left = &SetOp{Op: OpExcept, L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseSetTerm() (SetExpr, error) {
	if p.cur().kind == tLParen {
		p.advance()
		e, err := p.parseSetExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parseSelect()
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	sel.Distinct = p.acceptKw("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.cur().kind == tComma {
			p.advance()
			continue
		}
		break
	}
	if p.acceptKw("FROM") {
		first := true
		for {
			join := JoinComma
			if !first {
				switch {
				case p.cur().kind == tComma:
					p.advance()
				case p.kw("LEFT"):
					p.advance()
					p.acceptKw("OUTER")
					if err := p.expectKw("JOIN"); err != nil {
						return nil, err
					}
					join = JoinLeft
				case p.kw("INNER"):
					p.advance()
					if err := p.expectKw("JOIN"); err != nil {
						return nil, err
					}
					join = JoinInner
				case p.kw("JOIN"):
					p.advance()
					join = JoinInner
				default:
					goto fromDone
				}
			}
			item, err := p.parseFromItem(join)
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, item)
			first = false
		}
	}
fromDone:
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if err := p.refuseClause(); err != nil {
		return nil, err
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// "*" or "alias.*"
	if p.cur().kind == tStar {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	if p.cur().kind == tIdent && !reservedWords[p.cur().text] &&
		p.peek().kind == tDot && p.toks[min(p.i+2, len(p.toks)-1)].kind == tStar {
		qual := strings.ToLower(p.advance().raw)
		p.advance() // .
		p.advance() // *
		return SelectItem{Star: true, Qualifier: qual}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKw("AS") {
		if p.cur().kind != tIdent {
			return SelectItem{}, p.errf("expected alias after AS")
		}
		item.Alias = strings.ToLower(p.advance().raw)
	} else if p.cur().kind == tIdent && !reservedWords[p.cur().text] {
		item.Alias = strings.ToLower(p.advance().raw)
	}
	return item, nil
}

func (p *parser) parseFromItem(join JoinKind) (FromItem, error) {
	var item FromItem
	item.Join = join
	if p.cur().kind == tLParen {
		p.advance()
		sub, err := p.parseQuery()
		if err != nil {
			return FromItem{}, err
		}
		if err := p.expect(tRParen, "')'"); err != nil {
			return FromItem{}, err
		}
		item.Sub = sub
	} else {
		if p.cur().kind != tIdent || reservedWords[p.cur().text] {
			return FromItem{}, p.errf("expected table name")
		}
		item.Table = strings.ToLower(p.advance().raw)
	}
	if p.acceptKw("AS") {
		if p.cur().kind != tIdent {
			return FromItem{}, p.errf("expected alias after AS")
		}
		item.Alias = strings.ToLower(p.advance().raw)
	} else if p.cur().kind == tIdent && !reservedWords[p.cur().text] {
		item.Alias = strings.ToLower(p.advance().raw)
	}
	if item.Alias == "" {
		if item.Table == "" {
			return FromItem{}, p.errf("subquery in FROM requires an alias")
		}
		item.Alias = item.Table
	}
	if join == JoinLeft || join == JoinInner {
		if err := p.expectKw("ON"); err != nil {
			return FromItem{}, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return FromItem{}, err
		}
		item.On = on
	}
	return item, nil
}

// Expression grammar: or-expr > and-expr > not > predicate > additive >
// multiplicative > primary.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: BOr, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: BAnd, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.kw("NOT") && p.peek().kind == tIdent && p.peek().text == "EXISTS" {
		p.advance()
		p.advance()
		sub, err := p.parseExistsBody()
		if err != nil {
			return nil, err
		}
		return &Exists{Negate: true, Sub: sub}, nil
	}
	if p.acceptKw("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	}
	if p.kw("EXISTS") {
		p.advance()
		sub, err := p.parseExistsBody()
		if err != nil {
			return nil, err
		}
		return &Exists{Sub: sub}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parseExistsBody() (*Query, error) {
	if err := p.expect(tLParen, "'(' after EXISTS"); err != nil {
		return nil, err
	}
	sub, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tRParen, "')'"); err != nil {
		return nil, err
	}
	return sub, nil
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.kw("IS") {
		p.advance()
		neg := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{E: left, Negate: neg}, nil
	}
	// [NOT] IN (literals)
	neg := false
	if p.kw("NOT") && p.peek().kind == tIdent && p.peek().text == "IN" {
		p.advance()
		neg = true
	}
	if p.acceptKw("IN") {
		if err := p.expect(tLParen, "'('"); err != nil {
			return nil, err
		}
		var vals []relation.Value
		for {
			v, err := p.parseLiteralValue()
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
			if p.cur().kind == tComma {
				p.advance()
				continue
			}
			break
		}
		if err := p.expect(tRParen, "')'"); err != nil {
			return nil, err
		}
		return &InList{E: left, Vals: vals, Negate: neg}, nil
	}
	var op BinOpKind
	switch p.cur().kind {
	case tEq:
		op = BEq
	case tNe:
		op = BNe
	case tLt:
		op = BLt
	case tLe:
		op = BLe
	case tGt:
		op = BGt
	case tGe:
		op = BGe
	default:
		return left, nil
	}
	p.advance()
	right, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &Binary{Op: op, L: left, R: right}, nil
}

func (p *parser) parseLiteralValue() (relation.Value, error) {
	switch {
	case p.cur().kind == tNumber:
		return relation.Int(p.advance().ival), nil
	case p.cur().kind == tString:
		return relation.String(p.advance().text), nil
	case p.kw("NULL"):
		p.advance()
		return relation.Null(), nil
	case p.cur().kind == tMinus && p.peek().kind == tNumber:
		p.advance()
		return relation.Int(-p.advance().ival), nil
	default:
		return relation.Value{}, p.errf("expected literal")
	}
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOpKind
		switch p.cur().kind {
		case tPlus:
			op = BAdd
		case tMinus:
			op = BSub
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOpKind
		switch p.cur().kind {
		case tStar:
			op = BMul
		case tSlash:
			op = BDiv
		case tPercent:
			op = BMod
		default:
			return left, nil
		}
		p.advance()
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	switch {
	case p.cur().kind == tNumber:
		return &Lit{V: relation.Int(p.advance().ival)}, nil
	case p.cur().kind == tString:
		return &Lit{V: relation.String(p.advance().text)}, nil
	case p.cur().kind == tMinus:
		p.advance()
		if p.cur().kind != tNumber {
			return nil, p.errf("expected number after unary '-'")
		}
		return &Lit{V: relation.Int(-p.advance().ival)}, nil
	case p.kw("NULL"):
		p.advance()
		return &Lit{V: relation.Null()}, nil
	case p.cur().kind == tLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case p.cur().kind == tIdent && !reservedWords[p.cur().text] && p.peek().kind == tLParen:
		return nil, p.errf("%s(...) is not supported: the subset has no aggregates or other function calls", p.cur().text)
	case p.cur().kind == tIdent && !reservedWords[p.cur().text]:
		name := strings.ToLower(p.advance().raw)
		if p.cur().kind == tDot {
			p.advance()
			if p.cur().kind != tIdent {
				return nil, p.errf("expected column after '.'")
			}
			col := strings.ToLower(p.advance().raw)
			return &ColRef{Qual: name, Name: col}, nil
		}
		return &ColRef{Name: name}, nil
	default:
		return nil, p.errf("expected expression")
	}
}
