package datalog

import (
	"cmp"
	"slices"
	"strconv"
)

// unfold returns prog with every helper predicate that qualifies replaced,
// at each occurrence, by its rule body — the unfold step of Tamaki & Sato's
// unfold/fold transformation — and the set of predicates it replaced. The
// engine evaluates the returned program, so an unfolded predicate gets no
// fact set and each rule that read it probes the relations under it where
// the rule binds its arguments. When nothing qualifies, prog itself comes
// back.
//
// A predicate P unfolds exactly when
//   - P is derived, not recursive, and has no fact;
//   - every head of P is pairwise-distinct variables;
//   - some rule reads P (a predicate nothing reads is an output);
//   - if a rule reads P positively, P has exactly one rule, so no reader's
//     rule count multiplies; the occurrence then becomes that rule's body
//     under a simultaneous substitution of its head variables by the
//     occurrence's terms, with the body's other variables, and each `_` of
//     the occurrence, renamed apart;
//   - if a rule reads P under `not`, every rule of P is one positive atom
//     whose non-head variables each occur once, and a `_` of the occurrence
//     stands only where the atom holds its head variable once; `not P(t)`
//     then becomes one negated atom per rule of P, with `_` at the non-head
//     positions.
//
// Predicates are visited bottom-up (by stratum), so a body is unfolded
// before it is substituted anywhere.
func unfold(prog *Program) (*Program, map[string]bool, error) {
	g, err := analyze(prog)
	if err != nil {
		return nil, nil, err
	}
	u := &unfolder{rules: slices.Clone(prog.Rules), defs: make(map[string][]int)}
	for i, r := range u.rules {
		u.defs[r.Head.Pred] = append(u.defs[r.Head.Pred], i)
	}
	preds := make([]string, 0, len(u.defs))
	for p := range u.defs {
		preds = append(preds, p)
	}
	slices.SortFunc(preds, func(a, b string) int {
		return cmp.Or(cmp.Compare(g.stratum[a], g.stratum[b]), cmp.Compare(a, b))
	})
	var unfolded map[string]bool
	for _, p := range preds {
		if g.recursive[p] || !u.qualifies(p) {
			continue
		}
		u.substitute(p)
		if unfolded == nil {
			unfolded = make(map[string]bool)
		}
		unfolded[p] = true
	}
	if unfolded == nil {
		return prog, nil, nil
	}
	out := &Program{Arities: make(map[string]int, len(prog.Arities))}
	for _, r := range u.rules {
		if !unfolded[r.Head.Pred] {
			out.Rules = append(out.Rules, r)
		}
	}
	for p, n := range prog.Arities {
		if !unfolded[p] {
			out.Arities[p] = n
		}
	}
	return out, unfolded, nil
}

// unfolder holds the program as the pass rewrites it: rules keeps the
// written order, and defs lists each head's rules by position.
type unfolder struct {
	rules []Rule
	defs  map[string][]int
	fresh int // renamed-apart variables issued so far
}

// qualifies reports whether the non-recursive predicate p unfolds (see
// unfold) against the rules as rewritten so far.
func (u *unfolder) qualifies(p string) bool {
	defs := u.defs[p]
	for _, i := range defs {
		r := u.rules[i]
		if r.IsFact() || !distinctVars(r.Head) {
			return false
		}
	}
	read := false
	for _, r := range u.rules {
		for _, l := range r.Body {
			if l.Kind != LitAtom || l.Atom.Pred != p {
				continue
			}
			read = true
			if !l.Negated && len(defs) != 1 {
				return false
			}
			if l.Negated && !u.negatable(defs, l.Atom) {
				return false
			}
		}
	}
	return read
}

// distinctVars reports whether every term of a is a variable, none twice.
func distinctVars(a Atom) bool {
	for i, t := range a.Terms {
		if t.Kind != Var || slices.ContainsFunc(a.Terms[:i], func(s Term) bool { return s.Name == t.Name }) {
			return false
		}
	}
	return true
}

// negatable reports whether the occurrence `not occ` can become one negated
// atom per rule of defs: each rule's body is one positive atom whose
// non-head variables occur once (each is then a `_`), and where occ holds a
// `_`, the atom holds that head variable at most once (a repeated one would
// be an equality no `_` can say).
func (u *unfolder) negatable(defs []int, occ Atom) bool {
	for _, i := range defs {
		r := u.rules[i]
		if len(r.Body) != 1 || r.Body[0].Kind != LitAtom || r.Body[0].Negated {
			return false
		}
		for _, t := range r.Body[0].Atom.Terms {
			if t.Kind != Var {
				continue
			}
			n := countVar(r.Body[0].Atom, t.Name)
			hp := slices.IndexFunc(r.Head.Terms, func(h Term) bool { return h.Name == t.Name })
			if hp < 0 && n > 1 || hp >= 0 && n > 1 && occ.Terms[hp].Kind == Wildcard {
				return false
			}
		}
	}
	return true
}

// countVar counts the positions of a that hold the variable name.
func countVar(a Atom, name string) int {
	n := 0
	for _, t := range a.Terms {
		if t.Kind == Var && t.Name == name {
			n++
		}
	}
	return n
}

// substitute replaces every occurrence of p in the other rules by p's
// definition: a positive one by the body of p's one rule, a negated one by
// one negated atom per rule of p.
func (u *unfolder) substitute(p string) {
	defs := u.defs[p]
	for i, r := range u.rules {
		if r.Head.Pred == p || !slices.ContainsFunc(r.Body, func(l Literal) bool { return l.Kind == LitAtom && l.Atom.Pred == p }) {
			continue
		}
		body := make([]Literal, 0, len(r.Body))
		for _, l := range r.Body {
			switch {
			case l.Kind != LitAtom || l.Atom.Pred != p:
				body = append(body, l)
			case l.Negated:
				for _, di := range defs {
					d := u.rules[di]
					a := u.substitution(d.Head, l.Atom, false).literal(d.Body[0])
					a.Negated = true
					body = append(body, a)
				}
			default:
				d := u.rules[defs[0]]
				sub := u.substitution(d.Head, l.Atom, true)
				for _, b := range d.Body {
					body = append(body, sub.literal(b))
				}
			}
		}
		u.rules[i].Body = body
	}
}

// renaming maps the variables of one rule's body, read at one occurrence,
// to the terms that replace them there.
type renaming struct {
	u     *unfolder
	sub   map[string]Term
	apart bool
}

// substitution reads a rule with head `head` at the occurrence occ: each
// head variable becomes occ's term at its position, all at once. With apart,
// every other variable of the body, and each `_` of occ, becomes a variable
// no rule uses; without it they become `_`.
func (u *unfolder) substitution(head, occ Atom, apart bool) renaming {
	r := renaming{u: u, sub: make(map[string]Term, len(head.Terms)), apart: apart}
	for i, h := range head.Terms {
		t := occ.Terms[i]
		if t.Kind == Wildcard && apart {
			t = u.variable()
		}
		r.sub[h.Name] = t
	}
	return r
}

// term maps one term of the body.
func (r renaming) term(t Term) Term {
	if t.Kind != Var {
		return t
	}
	s, ok := r.sub[t.Name]
	if !ok {
		s = Term{Kind: Wildcard}
		if r.apart {
			s = r.u.variable()
		}
		r.sub[t.Name] = s
	}
	return s
}

// literal maps the terms of one body literal.
func (r renaming) literal(l Literal) Literal {
	switch l.Kind {
	case LitAtom:
		terms := make([]Term, len(l.Atom.Terms))
		for i, t := range l.Atom.Terms {
			terms[i] = r.term(t)
		}
		l.Atom = Atom{Pred: l.Atom.Pred, Terms: terms}
	case LitCmp:
		l.L, l.R = r.term(l.L), r.term(l.R)
	default:
		l.Out, l.A = r.term(l.Out), r.term(l.A)
		if l.ArithOp != ArithNone {
			l.B = r.term(l.B)
		}
	}
	return l
}

// variable issues a fresh variable. The lexer reads no `'`, so no written
// variable shares its name.
func (u *unfolder) variable() Term {
	u.fresh++
	return V("V'" + strconv.Itoa(u.fresh))
}
