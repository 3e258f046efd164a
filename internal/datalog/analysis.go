package datalog

import (
	"fmt"
	"slices"
)

// Check validates a program: range restriction (safety), schedulability of
// every rule body, and stratifiability of negation. Parse
// calls it automatically; it is exported for programmatically built programs.
func Check(prog *Program) error {
	for i := range prog.Rules {
		if _, err := orderBody(prog.Rules[i]); err != nil {
			return err
		}
	}
	if _, _, err := Stratify(prog); err != nil {
		return err
	}
	return nil
}

// orderBody produces an evaluation order for the rule body such that every
// literal is schedulable when reached (negation fully bound, built-ins with
// bound inputs), and verifies all head variables end up bound. This doubles
// as the safety check.
func orderBody(r Rule) ([]int, error) {
	bound := make(map[string]bool)
	used := make([]bool, len(r.Body))
	var order []int

	schedulable := func(l Literal) bool {
		switch l.Kind {
		case LitAtom:
			if !l.Negated {
				return true
			}
			for _, t := range l.Atom.Terms {
				if t.Kind == Var && !bound[t.Name] {
					return false
				}
			}
			return true
		case LitCmp:
			for _, t := range []Term{l.L, l.R} {
				if t.Kind == Var && !bound[t.Name] {
					return false
				}
			}
			return true
		default: // LitArith
			aOK := l.A.Kind != Var || bound[l.A.Name]
			bOK := l.ArithOp == ArithNone || l.B.Kind != Var || bound[l.B.Name]
			if aOK && bOK {
				return true
			}
			// X = Y with X bound, or a constant, can bind Y.
			if l.ArithOp == ArithNone && (l.Out.Kind == Const || l.Out.Kind == Var && bound[l.Out.Name]) {
				return true
			}
			return false
		}
	}
	bind := func(l Literal) {
		switch l.Kind {
		case LitAtom:
			if !l.Negated {
				for _, t := range l.Atom.Terms {
					if t.Kind == Var {
						bound[t.Name] = true
					}
				}
			}
		case LitArith:
			if l.Out.Kind == Var {
				bound[l.Out.Name] = true
			}
			if l.ArithOp == ArithNone && l.A.Kind == Var {
				bound[l.A.Name] = true
			}
		}
	}

	for len(order) < len(r.Body) {
		progress := false
		for i, l := range r.Body {
			if used[i] || !schedulable(l) {
				continue
			}
			used[i] = true
			order = append(order, i)
			bind(l)
			progress = true
			break
		}
		if !progress {
			for i, l := range r.Body {
				if !used[i] {
					return nil, fmt.Errorf("datalog: rule %s: literal %s is unsafe (unbound variables)", r, l)
				}
			}
		}
	}
	for _, t := range r.Head.Terms {
		switch t.Kind {
		case Var:
			if !bound[t.Name] {
				return nil, fmt.Errorf("datalog: rule %s: head variable %s unbound", r, t.Name)
			}
		}
	}
	return order, nil
}

// depGraph is a program's predicate dependency graph and the strata read
// off it. NewEngine computes it once: stratification, the fixpoint loop
// (which strata repeat their passes) and the warm path's affected closure
// all read this one walk.
type depGraph struct {
	// dependents maps a body predicate to the head predicates whose rules
	// read it.
	dependents map[string][]string
	// stratum numbers every IDB predicate (EDB predicates are 0); numStrata
	// is one past the highest.
	stratum   map[string]int
	numStrata int
	// recursive marks the predicates on a dependency cycle, the only ones
	// whose rules read their own stratum.
	recursive map[string]bool
}

// Stratify computes a stratum number for every predicate. The strata are
// the dependency graph's strongly connected components, layered: a predicate
// sits one stratum above the highest IDB predicate it reads outside its
// component, and the members of a component share a stratum. So a stratum
// reads its own predicates only through recursion, and negated dependencies
// are strictly below. It returns the per-predicate strata, the number of
// strata, and an error if negation is cyclic.
func Stratify(prog *Program) (map[string]int, int, error) {
	g, err := analyze(prog)
	if err != nil {
		return nil, 0, err
	}
	return g.stratum, g.numStrata, nil
}

// analyze builds the dependency graph and strata of prog with Tarjan's
// algorithm over the IDB predicates, which emits every component after the
// components it reads, so each is placed as it is emitted.
func analyze(prog *Program) (*depGraph, error) {
	type edge struct {
		to      string
		negated bool
	}
	idb := prog.IDB()
	g := &depGraph{
		dependents: make(map[string][]string),
		stratum:    make(map[string]int),
		numStrata:  1,
		recursive:  make(map[string]bool),
	}
	reads := make(map[string][]edge) // head -> the IDB predicates its rules read
	for _, r := range prog.Rules {
		h := r.Head.Pred
		for _, l := range r.Body {
			if l.Kind != LitAtom {
				continue
			}
			q := l.Atom.Pred
			if !slices.Contains(g.dependents[q], h) {
				g.dependents[q] = append(g.dependents[q], h)
			}
			if idb[q] {
				reads[h] = append(reads[h], edge{q, l.Negated})
			}
		}
	}

	index := make(map[string]int)
	low := make(map[string]int)
	comp := make(map[string]int) // predicate -> its component's root index + 1
	var stack []string
	var err error
	var visit func(p string)
	visit = func(p string) {
		index[p] = len(index)
		low[p] = index[p]
		stack = append(stack, p)
		for _, e := range reads[p] {
			if _, seen := index[e.to]; !seen {
				visit(e.to)
				low[p] = min(low[p], low[e.to])
			} else if comp[e.to] == 0 {
				low[p] = min(low[p], index[e.to]) // still on the stack
			}
		}
		if low[p] != index[p] {
			return
		}
		i := len(stack) - 1
		for stack[i] != p {
			i--
		}
		members := stack[i:]
		stack = stack[:i]
		id := index[p] + 1
		for _, m := range members {
			comp[m] = id
		}
		level := 0
		for _, m := range members {
			for _, e := range reads[m] {
				switch {
				case comp[e.to] != id:
					level = max(level, g.stratum[e.to]+1)
				case e.negated:
					if err == nil {
						err = fmt.Errorf("datalog: program not stratifiable: cycle through negation at %s", m)
					}
				default:
					g.recursive[m] = true
				}
			}
		}
		for _, m := range members {
			g.stratum[m] = level
			g.numStrata = max(g.numStrata, level+1)
		}
	}
	for _, r := range prog.Rules {
		if _, seen := index[r.Head.Pred]; !seen {
			visit(r.Head.Pred)
		}
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}
