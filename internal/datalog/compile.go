package datalog

import (
	"fmt"

	"repro/internal/relation"
)

// valSrc is a value source known at compile time: a constant or a variable
// slot that is guaranteed bound when the step executes.
type valSrc struct {
	isConst bool
	c       relation.Value
	varID   int
}

func (s valSrc) value(env []relation.Value) relation.Value {
	if s.isConst {
		return s.c
	}
	return env[s.varID]
}

// stepMeta is one body literal with precomputed binding information, derived
// from the static evaluation order (boundness at each step is known at
// compile time).
type stepMeta struct {
	lit Literal

	// Positive and negated atoms: index lookup on the columns whose value is
	// known (constants and already-bound variables).
	lookupCols []int
	lookupSrc  []valSrc
	// set is the atom's predicate's fact set, which lives as long as the
	// engine, and index its index over lookupCols (nil when lookupCols is
	// empty: a full scan). Both are assigned by NewEngine, so compile time
	// fixes exactly which column subsets are ever probed and each set
	// maintains those indexes on every insert.
	set   *relation.Bag
	index *relation.BagIndex
	// Positive atoms: tuple positions that bind fresh variables, in left to
	// right order. bindRepeat[i] marks a later occurrence of a variable
	// already bound at an earlier position of this atom: it is an equality
	// check, not a binding (precomputed here so the per-tuple loop does no
	// quadratic rescan of bindVar).
	bindPos    []int
	bindVar    []int
	bindRepeat []bool

	// Comparison.
	cmpL, cmpR valSrc

	// Arithmetic / assignment. If outIsBound, the computed value is checked
	// against env[outVar] instead of binding it. For plain assignment with a
	// bound Out and unbound A, the compiler swaps operands so that the step
	// always computes from bound sources into bindOut.
	aVal, bVal valSrc
	outVar     int
	outIsBound bool
}

// headSlot describes one head term of a compiled rule.
type headSlot struct {
	isConst bool
	c       relation.Value
	varID   int
}

// compiledRule is a rule with a fixed evaluation order and variable slots.
// It is immutable after NewEngine finishes: all mutable evaluation state
// lives in its ruleScratch.
type compiledRule struct {
	rule  Rule
	steps []stepMeta
	nVars int
	head  []headSlot
	// headSet is the head predicate's fact set and headRegion the storage
	// its derived facts are carved from (both assigned by NewEngine).
	headSet    *relation.Bag
	headRegion *relation.Region

	// fns is the compiled step chain (see eval.go): one specialised closure
	// per body literal plus the head-emitting terminal, built by NewEngine
	// once every step holds its set and index.
	fns []stepFn

	// scratch is the rule's evaluation scratch.
	scratch *ruleScratch
}

// ruleScratch holds the per-evaluation mutable state of one rule: the
// variable environment, the head tuple buffer filled before emission and one
// lookup-key buffer per step. Emitted tuples reference headBuf and must be
// cloned by any sink that retains them (insert with clone does exactly that).
type ruleScratch struct {
	env     []relation.Value
	headBuf relation.Tuple
	vals    [][]relation.Value // per step: len(lookupCols)

	// emit is the per-call sink, installed by evalRule so the compiled step
	// chain (eval.go) runs without per-call closure state.
	emit emitFn
}

// newRuleScratch allocates an evaluation scratch for one compiled rule.
func newRuleScratch(c *compiledRule) *ruleScratch {
	sc := &ruleScratch{
		env:     make([]relation.Value, c.nVars),
		headBuf: make(relation.Tuple, len(c.head)),
		vals:    make([][]relation.Value, len(c.steps)),
	}
	for i := range c.steps {
		if n := len(c.steps[i].lookupCols); n > 0 {
			sc.vals[i] = make([]relation.Value, n)
		}
	}
	return sc
}

// compileRule orders the body and resolves variables to slots.
func compileRule(r Rule) (*compiledRule, error) {
	order, err := orderBody(r)
	if err != nil {
		return nil, err
	}
	c := &compiledRule{rule: r}
	varID := make(map[string]int)
	slot := func(name string) int {
		if id, ok := varID[name]; ok {
			return id
		}
		id := len(varID)
		varID[name] = id
		return id
	}
	bound := make(map[string]bool)
	src := func(t Term) (valSrc, error) {
		switch t.Kind {
		case Const:
			return valSrc{isConst: true, c: t.Val}, nil
		case Var:
			if !bound[t.Name] {
				return valSrc{}, fmt.Errorf("datalog: internal: variable %s not bound where expected in %s", t.Name, r)
			}
			return valSrc{varID: slot(t.Name)}, nil
		default:
			return valSrc{}, fmt.Errorf("datalog: internal: bad operand %s", t)
		}
	}

	for _, bi := range order {
		l := r.Body[bi]
		m := stepMeta{lit: l}
		switch l.Kind {
		case LitAtom:
			// A variable first bound by an earlier position of this same atom
			// is not usable as an index key (its env slot is only written
			// when a candidate tuple is examined); its later occurrences
			// become post-match equality checks via the bind list.
			freshInAtom := make(map[string]bool)
			for pos, t := range l.Atom.Terms {
				switch t.Kind {
				case Wildcard:
					// no constraint
				case Const:
					m.lookupCols = append(m.lookupCols, pos)
					m.lookupSrc = append(m.lookupSrc, valSrc{isConst: true, c: t.Val})
				case Var:
					if bound[t.Name] && !freshInAtom[t.Name] {
						m.lookupCols = append(m.lookupCols, pos)
						m.lookupSrc = append(m.lookupSrc, valSrc{varID: slot(t.Name)})
					} else if l.Negated {
						return nil, fmt.Errorf("datalog: internal: unbound %s in negated %s", t.Name, l.Atom)
					} else {
						m.bindPos = append(m.bindPos, pos)
						m.bindVar = append(m.bindVar, slot(t.Name))
						bound[t.Name] = true
						freshInAtom[t.Name] = true
					}
				}
			}
			for i, id := range m.bindVar {
				rep := false
				for j := 0; j < i; j++ {
					if m.bindVar[j] == id {
						rep = true
						break
					}
				}
				m.bindRepeat = append(m.bindRepeat, rep)
			}
		case LitCmp:
			var err error
			if m.cmpL, err = src(l.L); err != nil {
				return nil, err
			}
			if m.cmpR, err = src(l.R); err != nil {
				return nil, err
			}
		case LitArith:
			outBound := l.Out.Kind == Var && bound[l.Out.Name]
			aBound := l.A.Kind != Var || bound[l.A.Name]
			if l.ArithOp == ArithNone && (outBound || l.Out.Kind == Const) && !aBound {
				// X = Y with X bound or a constant, Y fresh: bind Y from X.
				var err error
				if m.aVal, err = src(l.Out); err != nil {
					return nil, err
				}
				m.bVal = m.aVal
				m.outVar = slot(l.A.Name)
				m.outIsBound = false
				bound[l.A.Name] = true
				break
			}
			var err error
			if m.aVal, err = src(l.A); err != nil {
				return nil, err
			}
			if l.ArithOp != ArithNone {
				if m.bVal, err = src(l.B); err != nil {
					return nil, err
				}
			} else {
				m.bVal = m.aVal
			}
			if l.Out.Kind == Const {
				m.outVar = -1
				m.outIsBound = true
			} else {
				m.outVar = slot(l.Out.Name)
				m.outIsBound = outBound
				if !outBound {
					bound[l.Out.Name] = true
				}
			}
		}
		c.steps = append(c.steps, m)
	}

	for _, t := range r.Head.Terms {
		var h headSlot
		switch t.Kind {
		case Const:
			h = headSlot{isConst: true, c: t.Val}
		case Var:
			h = headSlot{varID: slot(t.Name)}
		default:
			return nil, fmt.Errorf("datalog: wildcard in head of %s", r)
		}
		c.head = append(c.head, h)
	}
	c.nVars = len(varID)
	c.scratch = newRuleScratch(c)
	return c, nil
}
