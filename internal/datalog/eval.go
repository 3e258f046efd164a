package datalog

import "repro/internal/relation"

// Compiled rule evaluation: every rule body is compiled — once, at NewEngine
// time — into a chain of specialised step closures, one per body literal,
// each capturing its precomputed stepMeta and the next step. The previous
// evaluator re-built a recursive closure (and its captured environment) on
// every call; the compiled chain allocates nothing per evaluation, and each
// closure is specialised to its literal's shape (indexed atom, full-scan
// atom, negated atom, comparison, arithmetic) so the per-tuple inner loops
// carry no literal-kind dispatch. The per-call emit sink travels in the
// rule's ruleScratch.

// stepFn executes one compiled body step, calling the next step for every
// binding that survives, and sc.emit at the end of the chain.
type stepFn func(e *Engine, c *compiledRule, sc *ruleScratch) error

// emitFn receives head tuples; they reference the scratch's head buffer and
// must be cloned by any sink that retains them.
type emitFn func(relation.Tuple) error

// evalRule joins the body steps and emits head tuples into the scratch's
// head buffer (emit callbacks must copy what they retain).
func (e *Engine) evalRule(c *compiledRule, emit emitFn) error {
	sc := c.scratch
	sc.emit = emit
	err := c.fns[0](e, c, sc)
	sc.emit = nil
	return err
}

// buildFns compiles the rule body into its step chain. It runs after
// NewEngine has handed every step its set and index.
func (c *compiledRule) buildFns() {
	n := len(c.steps)
	fns := make([]stepFn, n+1)
	head := c.head
	fns[n] = func(e *Engine, c *compiledRule, sc *ruleScratch) error {
		t := sc.headBuf
		for i, h := range head {
			if h.isConst {
				t[i] = h.c
			} else {
				t[i] = sc.env[h.varID]
			}
		}
		return sc.emit(t)
	}
	for i := n - 1; i >= 0; i-- {
		m := &c.steps[i]
		next := fns[i+1]
		switch {
		case m.lit.Kind == LitAtom && m.lit.Negated:
			fns[i] = makeNegStep(m, i, next)
		case m.lit.Kind == LitAtom && len(m.lookupCols) == 0:
			fns[i] = makeScanStep(m, next)
		case m.lit.Kind == LitAtom:
			fns[i] = makeLookupStep(m, i, next)
		case m.lit.Kind == LitCmp:
			fns[i] = makeCmpStep(m, next)
		default:
			fns[i] = makeArithStep(m, next)
		}
	}
	c.fns = fns
}

// bindStep applies the binding positions of an atom step to one candidate
// tuple, honouring repeated-variable equality checks.
func bindStep(m *stepMeta, sc *ruleScratch, t relation.Tuple) bool {
	env := sc.env
	for i, p := range m.bindPos {
		v := m.bindVar[i]
		if m.bindRepeat[i] {
			if !env[v].Equal(t[p]) {
				return false
			}
			continue
		}
		env[v] = t[p]
	}
	return true
}

// makeScanStep compiles a positive atom with no bound columns: a full
// enumeration of the predicate.
func makeScanStep(m *stepMeta, next stepFn) stepFn {
	return func(e *Engine, c *compiledRule, sc *ruleScratch) error {
		for _, t := range m.set.Tuples() {
			if !bindStep(m, sc, t) {
				continue
			}
			if err := next(e, c, sc); err != nil {
				return err
			}
		}
		return nil
	}
}

// makeLookupStep compiles a positive atom with bound columns: a probe of the
// step's index, walking the candidate chain with equality verification. The
// walk stands on a tuple while the body runs and reads its link afterwards,
// so recursive rules may insert into the probed set mid-walk: new tuples go
// to the front of their bucket, behind the walk, and a grow keeps the tuples
// of one key in order (relation.Chain.Grow); a tuple this walk misses is
// read by the stratum's next pass.
func makeLookupStep(m *stepMeta, step int, next stepFn) stepFn {
	return func(e *Engine, c *compiledRule, sc *ruleScratch) error {
		env := sc.env
		set, ix := m.set, m.index
		key := sc.vals[step][:len(m.lookupCols)]
		for i, s := range m.lookupSrc {
			key[i] = s.value(env)
		}
		for p := ix.First(relation.HashValues(key)); p >= 0; p = ix.Next(p) {
			t := set.At(p)
			if !matchAt(t, m.lookupCols, key) || !bindStep(m, sc, t) {
				continue
			}
			if err := next(e, c, sc); err != nil {
				return err
			}
		}
		return nil
	}
}

// makeNegStep compiles a negated atom: an absence check against the full
// set.
func makeNegStep(m *stepMeta, step int, next stepFn) stepFn {
	return func(e *Engine, c *compiledRule, sc *ruleScratch) error {
		env := sc.env
		key := sc.vals[step][:len(m.lookupCols)]
		for i, s := range m.lookupSrc {
			key[i] = s.value(env)
		}
		set, ix := m.set, m.index
		if ix == nil {
			if set.DistinctLen() > 0 {
				return nil
			}
		} else {
			for p := ix.First(relation.HashValues(key)); p >= 0; p = ix.Next(p) {
				if matchAt(set.At(p), m.lookupCols, key) {
					return nil
				}
			}
		}
		return next(e, c, sc)
	}
}

// makeCmpStep compiles a comparison literal.
func makeCmpStep(m *stepMeta, next stepFn) stepFn {
	op := m.lit.Cmp
	return func(e *Engine, c *compiledRule, sc *ruleScratch) error {
		l, r := m.cmpL.value(sc.env), m.cmpR.value(sc.env)
		// = and != test equality, which never looks a symbol's string up.
		var pass bool
		switch op {
		case CmpEQ:
			pass = l.Equal(r)
		case CmpNE:
			pass = !l.Equal(r)
		case CmpLT:
			pass = l.Compare(r) < 0
		case CmpLE:
			pass = l.Compare(r) <= 0
		case CmpGT:
			pass = l.Compare(r) > 0
		default:
			pass = l.Compare(r) >= 0
		}
		if !pass {
			return nil
		}
		return next(e, c, sc)
	}
}

// makeArithStep compiles an arithmetic/assignment literal.
func makeArithStep(m *stepMeta, next stepFn) stepFn {
	op := m.lit.ArithOp
	return func(e *Engine, c *compiledRule, sc *ruleScratch) error {
		env := sc.env
		a := m.aVal.value(env)
		var out relation.Value
		if op == ArithNone {
			out = a
		} else {
			b := m.bVal.value(env)
			if a.Kind() != relation.KindInt || b.Kind() != relation.KindInt {
				return nil // arithmetic on non-ints derives nothing
			}
			x, y := a.AsInt(), b.AsInt()
			switch op {
			case ArithAdd:
				out = relation.Int(x + y)
			case ArithSub:
				out = relation.Int(x - y)
			case ArithMul:
				out = relation.Int(x * y)
			case ArithDiv:
				if y == 0 {
					return nil
				}
				out = relation.Int(x / y)
			default:
				if y == 0 {
					return nil
				}
				out = relation.Int(x % y)
			}
		}
		if m.outIsBound {
			var want relation.Value
			if m.outVar == -1 {
				want = m.lit.Out.Val
			} else {
				want = env[m.outVar]
			}
			if !want.Equal(out) {
				return nil
			}
			return next(e, c, sc)
		}
		env[m.outVar] = out
		return next(e, c, sc)
	}
}
