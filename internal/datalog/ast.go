// Package datalog implements a stratified Datalog engine: lexer, parser,
// safety analysis, stratification with negation, and a
// bottom-up evaluator over internal/relation values that repeats a recursive
// stratum's passes to their fixpoint.
//
// It is the "specialized language for declarative scheduler programming" the
// paper names as research objective 4: scheduling protocols (SS2PL, SLA
// tiers, relaxed consistency) are Datalog programs whose extensional
// relations are the scheduler's pending `request` and `history` tables and
// whose answer predicate is the set of requests qualified for execution.
//
// The engine is built for the scheduler's round loop: NewEngine unfolds the
// helper predicates that can stand in for their occurrences into the rules
// that read them (unfold.go), each stored predicate's facts are a
// relation.Bag at count 1, indexed on the column subsets fixed at compile
// time, and Engine.RunIncremental warm-starts a round from the previous
// one — unchanged EDB predicates keep their fact sets and indexes, and a
// change re-derives only the stored predicates downstream of it. Evaluation
// runs on the calling goroutine. Engine.Run remains the cold path, and the
// reference engine — the program as written, every stratum iterated to its
// fixpoint — the correctness oracle; see the Engine documentation in
// engine.go.
package datalog

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Term is a variable, a wildcard or a constant. Rules have no aggregate
// terms: no protocol counts or sums, and the parser refuses one by name.
type Term struct {
	Kind TermKind
	Name string         // variable name (Var)
	Val  relation.Value // Const payload
}

// TermKind discriminates Term.
type TermKind uint8

// Term kinds.
const (
	Var TermKind = iota
	Wildcard
	Const
)

// V makes a variable term.
func V(name string) Term { return Term{Kind: Var, Name: name} }

// C makes a constant term.
func C(v relation.Value) Term { return Term{Kind: Const, Val: v} }

// CInt makes an integer constant term.
func CInt(i int64) Term { return C(relation.Int(i)) }

// CStr makes a string constant term.
func CStr(s string) Term { return C(relation.String(s)) }

func (t Term) String() string {
	switch t.Kind {
	case Var:
		return t.Name
	case Wildcard:
		return "_"
	default:
		return t.Val.Encode()
	}
}

// Atom is a predicate applied to terms.
type Atom struct {
	Pred  string
	Terms []Term
}

func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// CmpKind is a built-in comparison.
type CmpKind uint8

// Built-in comparison operators.
const (
	CmpEQ CmpKind = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (c CmpKind) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[c]
}

// ArithKind is a built-in arithmetic operator for X = Y op Z literals.
type ArithKind uint8

// Built-in arithmetic operators (ArithNone means plain assignment X = Y).
const (
	ArithNone ArithKind = iota
	ArithAdd
	ArithSub
	ArithMul
	ArithDiv
	ArithMod
)

func (a ArithKind) String() string {
	return [...]string{"", "+", "-", "*", "/", "%"}[a]
}

// Literal is one conjunct of a rule body: a (possibly negated) atom, a
// comparison built-in, or an arithmetic binding X = Y op Z.
type Literal struct {
	Kind LitKind

	// Atom / negated atom.
	Atom    Atom
	Negated bool

	// Comparison built-in: L op R.
	Cmp  CmpKind
	L, R Term

	// Arithmetic binding: Out = A op B (Out must be a variable).
	ArithOp   ArithKind
	Out, A, B Term
}

// LitKind discriminates Literal.
type LitKind uint8

// Literal kinds.
const (
	LitAtom LitKind = iota
	LitCmp
	LitArith
)

func (l Literal) String() string {
	switch l.Kind {
	case LitAtom:
		if l.Negated {
			return "not " + l.Atom.String()
		}
		return l.Atom.String()
	case LitCmp:
		return fmt.Sprintf("%s %s %s", l.L, l.Cmp, l.R)
	default:
		if l.ArithOp == ArithNone {
			return fmt.Sprintf("%s = %s", l.Out, l.A)
		}
		return fmt.Sprintf("%s = %s %s %s", l.Out, l.A, l.ArithOp, l.B)
	}
}

// Rule is Head :- Body. A rule with an empty body is a fact.
type Rule struct {
	Head Atom
	Body []Literal
}

// IsFact reports whether the rule has an empty body (all head terms must then
// be constants; the parser enforces this).
func (r Rule) IsFact() bool { return len(r.Body) == 0 }

func (r Rule) String() string {
	if r.IsFact() {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Program is a parsed Datalog program.
type Program struct {
	Rules []Rule
	// Arities records the arity of every predicate seen, for consistency
	// checking when EDB facts are supplied.
	Arities map[string]int
}

func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// IDB returns the set of intensional predicates (those appearing in a head).
func (p *Program) IDB() map[string]bool {
	out := make(map[string]bool)
	for _, r := range p.Rules {
		out[r.Head.Pred] = true
	}
	return out
}
