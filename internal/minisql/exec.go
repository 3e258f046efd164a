package minisql

import (
	"fmt"
	"strings"

	"repro/internal/ra"
	"repro/internal/relation"
)

// Catalog maps table names (lower case) to relations.
type Catalog map[string]*relation.Relation

// Run executes a query against a catalog: it compiles the query against the
// catalog's schemas (CompilePlan), builds the plan's view cache with the
// catalog's rows as its first delta (NewIVM) and reads the root. The view
// cache keeps the catalog's tuples while it runs, which must not change
// (see Delta); long-lived callers compile once and keep the view cache,
// patching it with each change to the tables instead.
func Run(q *Query, cat Catalog) (*relation.Relation, error) {
	schemas := make(map[string]*relation.Schema, len(cat))
	first := make(map[string]Delta, len(cat))
	for k, v := range cat {
		k = strings.ToLower(k)
		schemas[k] = v.Schema()
		first[k] = Delta{Ins: v.Rows()}
	}
	p, err := CompilePlan(q, schemas)
	if err != nil {
		return nil, err
	}
	m, err := NewIVM(p, first)
	if err != nil {
		return nil, err
	}
	return m.Result()
}

// conjunct is one top-level AND-ed predicate with bookkeeping.
type conjunct struct {
	e    Expr
	done bool
}

func splitConjuncts(e Expr, out []*conjunct) []*conjunct {
	if e == nil {
		return out
	}
	if b, ok := e.(*Binary); ok && b.Op == BAnd {
		out = splitConjuncts(b.L, out)
		return splitConjuncts(b.R, out)
	}
	return append(out, &conjunct{e: e})
}

func hasExists(e Expr) bool {
	switch n := e.(type) {
	case *Exists:
		return true
	case *Not:
		return hasExists(n.E)
	case *Binary:
		return hasExists(n.L) || hasExists(n.R)
	case *IsNull:
		return hasExists(n.E)
	case *InList:
		return hasExists(n.E)
	default:
		return false
	}
}

// extractKeys pulls equality conjuncts of the form left.col = right.col out
// of the pending conjuncts, where one side resolves only in the left schema
// and the other only in the right schema.
func extractKeys(l, r *relation.Schema, conjs []*conjunct) []ra.EquiKey {
	var keys []ra.EquiKey
	for _, c := range conjs {
		if c.done {
			continue
		}
		b, ok := c.e.(*Binary)
		if !ok || b.Op != BEq {
			continue
		}
		lc, lok := b.L.(*ColRef)
		rc, rok := b.R.(*ColRef)
		if !lok || !rok {
			continue
		}
		lp, _, lerr := resolveCol(l, lc)
		rp, _, rerr := resolveCol(r, rc)
		if lerr == nil && rerr == nil {
			keys = append(keys, ra.EquiKey{L: lp, R: rp})
			c.done = true
			continue
		}
		// Swapped orientation.
		lp2, _, lerr2 := resolveCol(l, rc)
		rp2, _, rerr2 := resolveCol(r, lc)
		if lerr2 == nil && rerr2 == nil {
			keys = append(keys, ra.EquiKey{L: lp2, R: rp2})
			c.done = true
		}
	}
	return keys
}

func checkDisjointAliases(l, r *relation.Schema) error {
	seen := make(map[string]bool)
	for _, c := range l.Columns() {
		alias, _, _ := strings.Cut(c.Name, ".")
		seen[alias] = true
	}
	for _, c := range r.Columns() {
		alias, _, _ := strings.Cut(c.Name, ".")
		if seen[alias] {
			return fmt.Errorf("minisql: duplicate table alias %q", alias)
		}
	}
	return nil
}

// resolveCol finds a column in a schema: a qualified reference matches
// "qual.name" exactly; an unqualified one must match exactly one column by
// its unqualified suffix.
func resolveCol(s *relation.Schema, c *ColRef) (int, relation.Kind, error) {
	if c.Qual != "" {
		if i, ok := s.Index(c.Qual + "." + c.Name); ok {
			return i, s.Col(i).Kind, nil
		}
		return 0, 0, fmt.Errorf("minisql: unknown column %s.%s", c.Qual, c.Name)
	}
	found := -1
	for i := 0; i < s.Len(); i++ {
		n := s.Col(i).Name
		suffix := n
		if j := strings.LastIndexByte(n, '.'); j >= 0 {
			suffix = n[j+1:]
		}
		if n == c.Name || suffix == c.Name {
			if found >= 0 {
				return 0, 0, fmt.Errorf("minisql: ambiguous column %q", c.Name)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("minisql: unknown column %q", c.Name)
	}
	return found, s.Col(found).Kind, nil
}

func concat(l, r *relation.Schema) *relation.Schema {
	cols := make([]relation.Column, 0, l.Len()+r.Len())
	cols = append(cols, l.Columns()...)
	cols = append(cols, r.Columns()...)
	return relation.NewSchema(cols...)
}

// compileExpr compiles an AST expression over a schema into an ra.Expr. It
// fails if any referenced column is absent (callers use this to test
// resolvability).
func compileExpr(e Expr, s *relation.Schema) (ra.Expr, error) {
	switch n := e.(type) {
	case *ColRef:
		pos, _, err := resolveCol(s, n)
		if err != nil {
			return nil, err
		}
		return ra.Col{Pos: pos, Name: s.Col(pos).Name}, nil // qualified, for Plan.String
	case *Lit:
		return ra.Lit{V: n.V}, nil
	case *Not:
		inner, err := compileExpr(n.E, s)
		if err != nil {
			return nil, err
		}
		return ra.Not{E: inner}, nil
	case *IsNull:
		inner, err := compileExpr(n.E, s)
		if err != nil {
			return nil, err
		}
		return ra.IsNull{E: inner, Negate: n.Negate}, nil
	case *InList:
		inner, err := compileExpr(n.E, s)
		if err != nil {
			return nil, err
		}
		return ra.InList{E: inner, Values: n.Vals, Negate: n.Negate}, nil
	case *Binary:
		l, err := compileExpr(n.L, s)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(n.R, s)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case BAnd:
			return ra.And{L: l, R: r}, nil
		case BOr:
			return ra.Or{L: l, R: r}, nil
		case BEq:
			return ra.Cmp{Op: ra.EQ, L: l, R: r}, nil
		case BNe:
			return ra.Cmp{Op: ra.NE, L: l, R: r}, nil
		case BLt:
			return ra.Cmp{Op: ra.LT, L: l, R: r}, nil
		case BLe:
			return ra.Cmp{Op: ra.LE, L: l, R: r}, nil
		case BGt:
			return ra.Cmp{Op: ra.GT, L: l, R: r}, nil
		case BGe:
			return ra.Cmp{Op: ra.GE, L: l, R: r}, nil
		case BAdd:
			return ra.Arith{Op: ra.Add, L: l, R: r}, nil
		case BSub:
			return ra.Arith{Op: ra.Sub, L: l, R: r}, nil
		case BMul:
			return ra.Arith{Op: ra.Mul, L: l, R: r}, nil
		case BDiv:
			return ra.Arith{Op: ra.Div, L: l, R: r}, nil
		default:
			return ra.Arith{Op: ra.Mod, L: l, R: r}, nil
		}
	case *Exists:
		return nil, fmt.Errorf("minisql: EXISTS must appear as a top-level WHERE conjunct")
	default:
		return nil, fmt.Errorf("minisql: unsupported expression %T", e)
	}
}

// correlatedKey recognises outer.col = inner.col (either orientation).
func correlatedKey(outer, inner *relation.Schema, b *Binary) (ra.EquiKey, bool) {
	lc, lok := b.L.(*ColRef)
	rc, rok := b.R.(*ColRef)
	if !lok || !rok {
		return ra.EquiKey{}, false
	}
	if lp, _, err := resolveCol(outer, lc); err == nil {
		if _, _, err := resolveCol(inner, lc); err == nil {
			return ra.EquiKey{}, false // ambiguous side
		}
		if rp, _, err := resolveCol(inner, rc); err == nil {
			return ra.EquiKey{L: lp, R: rp}, true
		}
	}
	if lp, _, err := resolveCol(outer, rc); err == nil {
		if _, _, err := resolveCol(inner, rc); err == nil {
			return ra.EquiKey{}, false
		}
		if rp, _, err := resolveCol(inner, lc); err == nil {
			return ra.EquiKey{L: lp, R: rp}, true
		}
	}
	return ra.EquiKey{}, false
}

// hoistImpliedKeys returns equi-join keys implied by an expression: a key
// survives an OR only if every disjunct implies it.
func hoistImpliedKeys(outer, inner *relation.Schema, e Expr) []ra.EquiKey {
	switch n := e.(type) {
	case *Binary:
		switch n.Op {
		case BEq:
			if k, ok := correlatedKey(outer, inner, n); ok {
				return []ra.EquiKey{k}
			}
			return nil
		case BAnd:
			return append(hoistImpliedKeys(outer, inner, n.L), hoistImpliedKeys(outer, inner, n.R)...)
		case BOr:
			l := hoistImpliedKeys(outer, inner, n.L)
			r := hoistImpliedKeys(outer, inner, n.R)
			var out []ra.EquiKey
			for _, k := range l {
				for _, k2 := range r {
					if k == k2 {
						out = append(out, k)
						break
					}
				}
			}
			return out
		}
	}
	return nil
}

func exprKind(e Expr, s *relation.Schema) relation.Kind {
	switch n := e.(type) {
	case *ColRef:
		if _, k, err := resolveCol(s, n); err == nil {
			return k
		}
		return relation.KindNull
	case *Lit:
		return n.V.Kind()
	default:
		return relation.KindInt
	}
}
