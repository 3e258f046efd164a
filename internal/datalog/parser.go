package datalog

import (
	"fmt"

	"repro/internal/relation"
)

// Parse parses a Datalog program.
//
// Syntax summary:
//
//	fact(1, "w").
//	head(X, Y) :- edge(X, Z), not removed(Z), Z < 10, Y = Z + 1.
//
// Variables start with an upper-case letter or '_' (a bare '_' is a
// wildcard); predicates and keywords are lower case; '%' and '//' start line
// comments.
func Parse(src string) (*Program, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := &Program{Arities: make(map[string]int)}
	for p.tok.kind != tokEOF {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		if err := recordArity(prog, r); err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse is Parse that panics on error; for embedded protocol programs.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

func recordArity(prog *Program, r Rule) error {
	record := func(pred string, n int) error {
		if prev, ok := prog.Arities[pred]; ok && prev != n {
			return fmt.Errorf("datalog: predicate %s used with arity %d and %d", pred, prev, n)
		}
		prog.Arities[pred] = n
		return nil
	}
	if err := record(r.Head.Pred, len(r.Head.Terms)); err != nil {
		return err
	}
	for _, l := range r.Body {
		if l.Kind == LitAtom {
			if err := record(l.Atom.Pred, len(l.Atom.Terms)); err != nil {
				return err
			}
		}
	}
	return nil
}

type parser struct {
	lx  *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("datalog: %d:%d: %s", p.tok.line, p.tok.col, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind, what string) error {
	if p.tok.kind != k {
		return p.errf("expected %s, got %s", what, p.tok)
	}
	return p.advance()
}

func (p *parser) parseRule() (Rule, error) {
	head, err := p.parseAtom(true)
	if err != nil {
		return Rule{}, err
	}
	var body []Literal
	if p.tok.kind == tokColonDash {
		if err := p.advance(); err != nil {
			return Rule{}, err
		}
		for {
			lit, err := p.parseLiteral()
			if err != nil {
				return Rule{}, err
			}
			body = append(body, lit)
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return Rule{}, err
			}
		}
	}
	if err := p.expect(tokDot, "'.'"); err != nil {
		return Rule{}, err
	}
	r := Rule{Head: head, Body: body}
	if r.IsFact() {
		for _, t := range head.Terms {
			if t.Kind != Const {
				return Rule{}, fmt.Errorf("datalog: fact %s has non-constant term %s", head.Pred, t)
			}
		}
	}
	return r, nil
}

func (p *parser) parseAtom(isHead bool) (Atom, error) {
	if p.tok.kind != tokIdent {
		return Atom{}, p.errf("expected predicate name, got %s", p.tok)
	}
	name := p.tok.text
	if err := p.advance(); err != nil {
		return Atom{}, err
	}
	if err := p.expect(tokLParen, "'('"); err != nil {
		return Atom{}, err
	}
	var terms []Term
	for {
		t, err := p.parseTerm(isHead)
		if err != nil {
			return Atom{}, err
		}
		terms = append(terms, t)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return Atom{}, err
			}
			continue
		}
		break
	}
	if err := p.expect(tokRParen, "')'"); err != nil {
		return Atom{}, err
	}
	return Atom{Pred: name, Terms: terms}, nil
}

func (p *parser) parseTerm(isHead bool) (Term, error) {
	switch p.tok.kind {
	case tokVar:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return V(name), nil
	case tokWildcard:
		if isHead {
			return Term{}, p.errf("wildcard not allowed in rule head")
		}
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return Term{Kind: Wildcard}, nil
	case tokInt:
		v := p.tok.ival
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return CInt(v), nil
	case tokString:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return CStr(s), nil
	case tokIdent:
		// Rules have no aggregate terms; name one (count<X>) when refusing it.
		name := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		if p.tok.kind == tokLt {
			return Term{}, p.errf("aggregate term %s<…> is not supported", name)
		}
		return Term{}, p.errf("unexpected identifier %q in term position", name)
	default:
		return Term{}, p.errf("expected term, got %s", p.tok)
	}
}

func (p *parser) parseLiteral() (Literal, error) {
	// "not atom"
	if p.tok.kind == tokIdent && p.tok.text == "not" {
		if err := p.advance(); err != nil {
			return Literal{}, err
		}
		a, err := p.parseAtom(false)
		if err != nil {
			return Literal{}, err
		}
		return Literal{Kind: LitAtom, Atom: a, Negated: true}, nil
	}
	// An atom if ident followed by '(' — we can decide from the current
	// token: operands of builtins are never bare identifiers.
	if p.tok.kind == tokIdent {
		a, err := p.parseAtom(false)
		if err != nil {
			return Literal{}, err
		}
		return Literal{Kind: LitAtom, Atom: a}, nil
	}
	// Built-in: operand op operand [arith operand]
	left, err := p.parseOperand()
	if err != nil {
		return Literal{}, err
	}
	var cmp CmpKind
	isEq := false
	switch p.tok.kind {
	case tokEq:
		isEq = true
	case tokNe:
		cmp = CmpNE
	case tokLt:
		cmp = CmpLT
	case tokLe:
		cmp = CmpLE
	case tokGt:
		cmp = CmpGT
	case tokGe:
		cmp = CmpGE
	default:
		return Literal{}, p.errf("expected comparison operator, got %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return Literal{}, err
	}
	right, err := p.parseOperand()
	if err != nil {
		return Literal{}, err
	}
	var arith ArithKind
	switch p.tok.kind {
	case tokPlus:
		arith = ArithAdd
	case tokMinus:
		arith = ArithSub
	case tokStar:
		arith = ArithMul
	case tokSlash:
		arith = ArithDiv
	case tokPercent:
		arith = ArithMod
	}
	if arith != ArithNone {
		if !isEq {
			return Literal{}, p.errf("arithmetic only allowed with '='")
		}
		if left.Kind != Var {
			return Literal{}, p.errf("left side of arithmetic '=' must be a variable")
		}
		if err := p.advance(); err != nil {
			return Literal{}, err
		}
		b, err := p.parseOperand()
		if err != nil {
			return Literal{}, err
		}
		return Literal{Kind: LitArith, ArithOp: arith, Out: left, A: right, B: b}, nil
	}
	if isEq {
		return Literal{Kind: LitArith, ArithOp: ArithNone, Out: left, A: right}, nil
	}
	return Literal{Kind: LitCmp, Cmp: cmp, L: left, R: right}, nil
}

func (p *parser) parseOperand() (Term, error) {
	switch p.tok.kind {
	case tokVar:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return V(name), nil
	case tokInt:
		v := p.tok.ival
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return CInt(v), nil
	case tokString:
		s := p.tok.text
		if err := p.advance(); err != nil {
			return Term{}, err
		}
		return CStr(s), nil
	default:
		return Term{}, p.errf("expected variable or constant operand, got %s", p.tok)
	}
}

// FactTuple converts a fact rule's terms to a tuple.
func FactTuple(r Rule) (relation.Tuple, error) {
	if !r.IsFact() {
		return nil, fmt.Errorf("datalog: %s is not a fact", r)
	}
	t := make(relation.Tuple, len(r.Head.Terms))
	for i, term := range r.Head.Terms {
		if term.Kind != Const {
			return nil, fmt.Errorf("datalog: fact with non-constant term %s", term)
		}
		t[i] = term.Val
	}
	return t, nil
}
