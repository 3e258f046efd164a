package datalog

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/relation"
)

// Engine evaluates a Datalog program bottom-up, stratum by stratum. The
// strata are the dependency graph's components (Stratify), so a stratum
// without recursion is complete after one pass over its rules; a recursive
// one repeats full passes over its rules until a pass derives nothing new
// (the naive fixpoint). The program is compiled once; EDB relations are
// supplied per run.
//
// NewEngine first unfolds the program's helper predicates (see unfold): a
// derived, non-recursive predicate that some rule reads, and whose
// definition can stand in for each occurrence without multiplying a
// reader's rules, is replaced by its rule body there. The engine compiles,
// stratifies and evaluates the unfolded program, so it stores only the
// predicates that stay: outputs nobody reads, recursive ones, and helpers
// with several rules read positively (or not expressible as negated atoms).
// On SS2PL it stores `blocked` and `qualified`, and each
// pending request probes the history's indexes for the lock conditions
// directly. Facts, FactSeq and FactCount of an unfolded predicate answer
// from a cold evaluation of the program as written over the current EDB,
// run on the query's demand (OnDemandRuns counts them). That evaluation is
// the reference engine (newReference): the program as written, with the
// fixpoint repeated in every stratum, which makes it the tests' oracle for
// the unfolding and the stratification alike.
//
// The engine keeps one fact set per stored predicate for its whole life,
// and that set is the only copy of the predicate's tuples: SetEDB stages
// rows that the next run loads into the predicate's set, an EDB delta is
// applied to the set in place, and derived predicates are reset and
// re-filled. Compiled rule steps point at their sets directly.
//
// Tuples are allocated by lifetime. An EDB set keeps the rows it is handed
// (the caller must not reuse them). A derived predicate's facts live until
// its set is next reset, so they are carved from a relation.Region owned by
// the predicate and rewound with the set: a warm round that re-derives
// `blocked` and `qualified` re-fills the storage the last round used instead
// of allocating a tuple per fact. Hence FactSeq's tuples are valid until the
// next run, and Facts returns copies, which stay valid.
//
// There are two evaluation modes. Run is the cold path: it resets the IDB
// sets and re-derives the fixpoint from the EDB sets. It is the correctness
// oracle and the fallback. RunIncremental is the warm-start path for the
// scheduler's round loop: EDB changes arrive as per-predicate insert/delete
// deltas, and only the consequences of those deltas are recomputed: a
// non-empty batch clears and re-derives exactly the predicates downstream of
// it (recomputeAffected), an empty one does nothing. In every mode,
// unaffected predicates — and every unchanged EDB fact with its index
// entries — are kept as-is.
//
// A fact set is a relation.Bag holding each fact at count 1 (see insert). Its
// indexes are chosen at compile time: NewEngine asks each predicate's set for
// an index over the bound positions of every atom occurrence, so the set
// maintains exactly the indexes the rules probe, on every insert and delete,
// and each step holds its index.
//
// The engine is single-caller and evaluates on the calling goroutine.
type Engine struct {
	// prog is the program evaluated: the written one with its unfolded
	// predicates substituted.
	prog     *Program
	compiled []*compiledRule
	depGraph
	rulesBy [][]int // stratum -> rule indexes
	idb     map[string]bool

	// written is the program as written and unfolded the predicates the
	// pass replaced; both are nil when nothing unfolded (prog is then the
	// written program). ref evaluates written cold over this engine's EDB,
	// built on first need; it last ran at run number refAt (runs counts the
	// runs that may have changed the EDB). onDemand counts the evaluations
	// a query of an unfolded predicate caused.
	written  *Program
	unfolded map[string]bool
	ref      *Engine
	refAt    int
	runs     int
	onDemand int

	// loops marks, per stratum, whether its passes repeat until one derives
	// nothing new: the strata holding a recursive predicate, or every
	// stratum of a reference engine.
	loops []bool

	// facts holds the one copy of every predicate's tuples, EDB and derived
	// alike, for the engine's lifetime: a delta is applied to the predicate's
	// set in place, a cold Run resets the IDB sets and re-derives them from
	// the EDB sets. The sets of the program's predicates are never replaced,
	// only reset (see edbSet for the others). regions holds, per derived
	// predicate, the storage its rule-derived facts are carved from, rewound
	// whenever its set is reset (resetIDB).
	facts   map[string]*relation.Bag
	regions map[string]*relation.Region
	// staged holds the rows SetEDB handed over since the last run; the next
	// run loads each into its (reset) fact set and forgets the slice.
	staged map[string][]relation.Tuple
	// warm is true once facts reflects a completed run over the current EDB.
	warm bool

	// emitSet and emitRegion are the head fact set and region of the rule
	// being evaluated, read by emit (the engine's emitFact, bound once), so
	// no pass or stratum allocates a sink. ruleBuf recycles
	// recomputeAffected's per-stratum rule selection, affected and roots the
	// affected-closure map and its root list.
	emitSet    *relation.Bag
	emitRegion *relation.Region
	emit       emitFn
	ruleBuf    []int
	affected   map[string]bool
	roots      []string

	// Stats from the last Run or RunIncremental.
	Stats RunStats
}

// Evaluation strategies reported in RunStats.Strategy.
const (
	// StrategyCold: full re-derivation from the EDB.
	StrategyCold = "cold"
	// StrategyNone: a warm run whose delta batch was empty.
	StrategyNone = "none"
	// StrategyRecompute: affected predicates cleared and re-derived (every
	// warm run with a non-empty batch).
	StrategyRecompute = "recompute"
)

// RunStats reports evaluation effort for one run.
type RunStats struct {
	Iterations   int // passes over a stratum's rules, summed over strata
	FactsDerived int // IDB facts derived (deduplicated)
	RuleFirings  int // successful head emissions, pre-deduplication
	// Strategy names the evaluation path taken (Strategy* constants).
	Strategy string
}

// EDBDelta describes the change to one extensional predicate between runs.
// Insert is applied before Delete — a tuple appearing in both ends up absent,
// matching an insert-then-remove event sequence (the scheduler appends
// executed requests to the history and garbage-collects finished
// transactions within the same round). Both sides are interpreted with set
// semantics: deleting a tuple removes it entirely, inserting a present tuple
// is a no-op. Deleting a tuple that is absent after the inserts is an error
// (RunIncremental's), since it means the caller's view of the EDB diverged.
type EDBDelta struct {
	Insert []relation.Tuple
	Delete []relation.Tuple
}

// NewEngine unfolds the program's helper predicates (see unfold) and
// compiles what remains.
func NewEngine(prog *Program) (*Engine, error) {
	run, unfolded, err := unfold(prog)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(run, false)
	if err != nil {
		return nil, err
	}
	if unfolded != nil {
		e.written, e.unfolded = prog, unfolded
	}
	return e, nil
}

// newReference compiles prog as written, without unfolding, into an engine
// that repeats passes in every stratum until one derives nothing new,
// whichever predicates the analysis calls recursive. It is correct however
// the program is stratified or unfolded, so it answers the queries of
// unfolded predicates and is the tests' oracle.
func newReference(prog *Program) (*Engine, error) {
	return newEngine(prog, true)
}

// newEngine compiles prog as it stands; with loopAll every stratum iterates
// to its fixpoint.
func newEngine(prog *Program, loopAll bool) (*Engine, error) {
	g, err := analyze(prog)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		prog:     prog,
		depGraph: *g,
		idb:      prog.IDB(),
		facts:    make(map[string]*relation.Bag),
		regions:  make(map[string]*relation.Region),
		staged:   make(map[string][]relation.Tuple),
		affected: make(map[string]bool),
	}
	e.emit = e.emitFact
	e.rulesBy = make([][]int, e.numStrata)
	e.loops = make([]bool, e.numStrata)
	for i, r := range prog.Rules {
		c, err := compileRule(r)
		if err != nil {
			return nil, err
		}
		e.compiled = append(e.compiled, c)
		h := r.Head.Pred
		s := e.stratum[h]
		e.rulesBy[s] = append(e.rulesBy[s], i)
		e.loops[s] = e.loops[s] || loopAll || e.recursive[h]
	}
	for pred := range prog.Arities {
		e.facts[pred] = e.newSet(pred)
	}
	for pred := range e.idb {
		e.regions[pred] = new(relation.Region)
	}
	// Hand each step its predicate's set and the index it probes, and each
	// rule head its set, so evaluation looks no predicate up by name.
	for _, c := range e.compiled {
		h := c.rule.Head.Pred
		c.headSet, c.headRegion = e.facts[h], e.regions[h]
		for si := range c.steps {
			m := &c.steps[si]
			if m.lit.Kind != LitAtom {
				continue
			}
			m.set = e.facts[m.lit.Atom.Pred]
			if len(m.lookupCols) > 0 {
				m.index = m.set.IndexNullable(m.lookupCols)
			}
		}
		c.buildFns()
	}
	return e, nil
}

// SetEDB installs the tuples of an extensional predicate for the next run,
// replacing any previous tuples for that predicate. The predicate must not be
// defined by a rule, and the arity must match its uses in the program. A
// predicate never mentioned in the program is accepted (and simply unused) so
// that callers can bind a fixed set of scheduler relations to any protocol.
func (e *Engine) SetEDB(pred string, rows []relation.Tuple) error {
	if e.idb[pred] || e.unfolded[pred] {
		return fmt.Errorf("datalog: %s is defined by rules; cannot set as EDB", pred)
	}
	if want, ok := e.prog.Arities[pred]; ok {
		for _, t := range rows {
			if len(t) != want {
				return fmt.Errorf("datalog: EDB %s expects arity %d, got tuple of %d", pred, want, len(t))
			}
		}
	}
	e.staged[pred] = rows
	return nil
}

// SetEDBRelation is SetEDB from a Relation.
func (e *Engine) SetEDBRelation(pred string, r *relation.Relation) error {
	return e.SetEDB(pred, r.Rows())
}

// newSet creates an empty fact set for pred.
func (e *Engine) newSet(pred string) *relation.Bag {
	return relation.NewBag(anySchema(e.prog.Arities[pred]))
}

// factsFor returns (creating if needed) the fact set of pred.
func (e *Engine) factsFor(pred string) *relation.Bag {
	f, ok := e.facts[pred]
	if !ok {
		f = e.newSet(pred)
		e.facts[pred] = f
	}
	return f
}

// edbSet returns the fact set that incoming rows of pred go to. A predicate
// the program never mentions takes the arity of the rows it is given while
// its set is empty: the set is replaced by one of that arity. (No rule step
// holds such a set.)
func (e *Engine) edbSet(pred string, rows []relation.Tuple) *relation.Bag {
	f := e.factsFor(pred)
	if _, known := e.prog.Arities[pred]; !known && f.DistinctLen() == 0 && len(rows) > 0 && len(rows[0]) != f.Schema().Len() {
		f = relation.NewBag(anySchema(len(rows[0])))
		e.facts[pred] = f
	}
	return f
}

// Run evaluates the program against the current EDB from scratch, replacing
// all derived facts from any previous run. It is the cold path and the
// correctness oracle for RunIncremental.
func (e *Engine) Run() error {
	// Invalidate warm state up front: a mid-run error must not leave
	// half-built fact sets behind a warm flag.
	e.mutating()
	if err := e.loadStaged(); err != nil {
		return err
	}
	return e.deriveAll()
}

// resetIDB empties a derived predicate's set and rewinds the region its
// rule-derived facts were carved from: no other set holds them.
func (e *Engine) resetIDB(p string) {
	e.facts[p].Reset()
	e.regions[p].Reset()
}

// loadStaged replaces the fact set of every predicate SetEDB was called on
// since the last run by the staged rows. A predicate whose rows fail to load
// stays staged, so the next run starts it over.
func (e *Engine) loadStaged() error {
	for pred, rows := range e.staged {
		e.factsFor(pred).Reset()
		f := e.edbSet(pred, rows)
		f.Reserve(len(rows))
		for _, t := range rows {
			if err := insertEDB(f, t); err != nil {
				return err
			}
		}
		delete(e.staged, pred)
	}
	return nil
}

// mutating marks the start of a run that may change the EDB sets: the
// engine stops being warm until the run succeeds, and the reference
// evaluation goes stale.
func (e *Engine) mutating() {
	e.warm = false
	e.runs++
}

// deriveAll is the cold evaluation: every IDB set is reset and re-derived
// from the EDB sets, stratum by stratum.
func (e *Engine) deriveAll() error {
	e.Stats = RunStats{Strategy: StrategyCold}
	for p := range e.idb {
		e.resetIDB(p)
	}
	if err := e.addProgramFacts(nil); err != nil {
		return err
	}
	for s := 0; s < e.numStrata; s++ {
		if err := e.runStratum(s, e.rulesBy[s]); err != nil {
			return err
		}
	}
	e.warm = true
	return nil
}

// addProgramFacts inserts the program's fact rules; with only non-nil, just
// those whose predicate it marks.
func (e *Engine) addProgramFacts(only map[string]bool) error {
	for _, r := range e.prog.Rules {
		if !r.IsFact() || (only != nil && !only[r.Head.Pred]) {
			continue
		}
		t, err := FactTuple(r)
		if err != nil {
			return err
		}
		insert(e.factsFor(r.Head.Pred), t)
	}
	return nil
}

// RunIncremental evaluates the program after applying the given EDB deltas,
// reusing the retained fact sets of the previous run. Predicates untouched by
// the change keep their facts and indexes; the affected predicates are
// cleared and re-derived. With no previous run it falls back to a cold
// derivation over the updated EDB, so a RunIncremental sequence is always
// equivalent to a cold run over the final EDB state. A delete of an absent
// fact fails the run and leaves the engine cold: the caller must reload the
// EDB (SetEDB and Run) before the next incremental run.
func (e *Engine) RunIncremental(changed map[string]EDBDelta) error {
	// Validate the whole batch before touching any state, so a rejected
	// delta leaves the engine exactly as it was. For predicates the program
	// never mentions, the arity is pinned by the staged rows, the retained
	// facts, or the batch's first tuple.
	for pred, d := range changed {
		if e.idb[pred] || e.unfolded[pred] {
			return fmt.Errorf("datalog: %s is defined by rules; cannot apply EDB delta", pred)
		}
		want, known := e.prog.Arities[pred]
		if !known {
			if rows, staged := e.staged[pred]; staged && len(rows) > 0 {
				want = len(rows[0])
			} else if f, ok := e.facts[pred]; ok && !staged && f.DistinctLen() > 0 {
				want = f.Schema().Len()
			} else if len(d.Insert) > 0 {
				want = len(d.Insert[0])
			} else {
				continue
			}
		}
		for _, t := range d.Insert {
			if len(t) != want {
				return fmt.Errorf("datalog: EDB %s expects arity %d, got tuple of %d", pred, want, len(t))
			}
		}
	}
	// Roots of the change: delta'd predicates plus SetEDB replacements.
	roots := e.roots[:0]
	for pred := range e.staged {
		roots = append(roots, pred)
	}
	for pred, d := range changed {
		if len(d.Insert) == 0 && len(d.Delete) == 0 {
			continue
		}
		if _, staged := e.staged[pred]; !staged {
			roots = append(roots, pred)
		}
	}
	cold := !e.warm
	var affected map[string]bool
	if !cold {
		if len(roots) == 0 {
			e.Stats = RunStats{Strategy: StrategyNone}
			return nil
		}
		affected = e.affectedClosure(roots)
	}

	// From here on state is mutated: drop the warm flag and re-raise it only
	// on success, so an error can never leave half-applied fact sets behind
	// a warm engine. Each delta is applied once, to the predicate's fact set
	// (insert before delete, per the EDBDelta contract).
	e.mutating()
	if err := e.loadStaged(); err != nil {
		return err
	}
	for pred, d := range changed {
		f := e.edbSet(pred, d.Insert)
		for _, t := range d.Insert {
			if err := insertEDB(f, t); err != nil {
				return err
			}
		}
		for i, t := range d.Delete {
			// A delete of a fact the set never held means the caller's
			// deltas diverged from the engine's EDB: refuse rather than
			// answer from a stale one. (A tuple listed twice was held.)
			if _, ok := f.Remove(t, 1); !ok && !slices.ContainsFunc(d.Delete[:i], t.Equal) {
				return fmt.Errorf("datalog: EDB %s: delete of absent tuple %s", pred, t)
			}
		}
	}

	if cold {
		return e.deriveAll()
	}
	if err := e.recomputeAffected(affected); err != nil {
		return err
	}
	e.warm = true
	return nil
}

// recomputeAffected is the warm path: with the changed EDB sets already
// updated in place, clear and re-derive exactly the predicates downstream of
// the change. Unaffected predicates — typically the bulk of the EDB — are
// retained with their indexes. Cleared sets are reset in place: the tuple and
// chain arrays, the bucket arrays and the region they grew last round are
// what this round re-fills.
func (e *Engine) recomputeAffected(affected map[string]bool) error {
	e.Stats = RunStats{Strategy: StrategyRecompute}
	for p := range affected {
		if e.idb[p] {
			e.resetIDB(p)
		}
	}
	if err := e.addProgramFacts(affected); err != nil {
		return err
	}
	for s := 0; s < e.numStrata; s++ {
		idx := e.ruleBuf[:0]
		for _, ri := range e.rulesBy[s] {
			if affected[e.compiled[ri].rule.Head.Pred] {
				idx = append(idx, ri)
			}
		}
		e.ruleBuf = idx[:0]
		if err := e.runStratum(s, idx); err != nil {
			return err
		}
	}
	return nil
}

// affectedClosure returns the predicates reachable from roots in the
// dependency graph (roots included). The returned map is the engine's
// reused buffer, valid until the next call; roots (e.roots) doubles as the
// traversal queue.
func (e *Engine) affectedClosure(roots []string) map[string]bool {
	out := e.affected
	clear(out)
	queue := roots
	for i := 0; i < len(queue); i++ {
		p := queue[i]
		if out[p] {
			continue
		}
		out[p] = true
		queue = append(queue, e.dependents[p]...)
	}
	e.roots = queue[:0]
	return out
}

// runStratum evaluates the given rules of stratum s: every rule in full
// once, which completes a stratum without recursion (its rules read only
// lower strata), and, in a stratum that loops, further full passes until
// one derives nothing new.
func (e *Engine) runStratum(s int, ruleIdx []int) error {
	for {
		derived, ran := e.Stats.FactsDerived, false
		for _, ri := range ruleIdx {
			c := e.compiled[ri]
			if c.rule.IsFact() {
				continue
			}
			e.emitSet, e.emitRegion = c.headSet, c.headRegion
			if err := e.evalRule(c, e.emit); err != nil {
				return err
			}
			ran = true
		}
		if !ran { // no rules, or only facts: nothing to pass over
			return nil
		}
		e.Stats.Iterations++
		if !e.loops[s] || e.Stats.FactsDerived == derived {
			return nil
		}
	}
}

// emitFact is the sink of every rule evaluation: it inserts a
// derived head tuple, which lives in the rule's scratch buffer, into the
// head's fact set — copied into the head's region on genuine insertion, so
// duplicate derivations copy nothing.
func (e *Engine) emitFact(t relation.Tuple) error {
	e.Stats.RuleFirings++
	h := t.Hash()
	if e.emitSet.Find(t, h) >= 0 {
		return nil
	}
	e.emitSet.AddNew(e.emitRegion.Copy(t), h, 1)
	e.Stats.FactsDerived++
	return nil
}

// FactCount returns the number of tuples of a predicate without
// materialising a relation — a cheap consistency probe for callers
// maintaining incremental mirrors of the EDB. An unfolded predicate is
// evaluated on demand (see Engine).
func (e *Engine) FactCount(pred string) int {
	if f := e.answer(pred); f != nil {
		return f.DistinctLen()
	}
	return 0
}

// Facts returns a copy of the current tuples of a predicate (EDB or derived)
// as a relation with a dynamically typed schema; later runs leave it as it
// is. Unknown predicates yield an empty zero-arity relation. An unfolded
// predicate is evaluated on demand (see Engine).
func (e *Engine) Facts(pred string) *relation.Relation {
	f := e.answer(pred)
	if f == nil {
		return relation.New(anySchema(e.prog.Arities[pred]))
	}
	out := relation.New(f.Schema())
	for _, t := range f.Tuples() {
		out.AppendTrusted(t.Clone())
	}
	return out
}

// FactSeq iterates over the current tuples of a predicate in place, without
// materialising a relation. The tuples are the engine's own: read-only, and
// valid only until the next run, which may reuse a derived predicate's
// storage (see Engine); copy what must outlive it, or use Facts. An
// unfolded predicate is evaluated on demand (see Engine) when the sequence
// starts.
func (e *Engine) FactSeq(pred string) iter.Seq[relation.Tuple] {
	return func(yield func(relation.Tuple) bool) {
		if f := e.answer(pred); f != nil {
			for _, t := range f.Tuples() {
				if !yield(t) {
					return
				}
			}
		}
	}
}

// OnDemandRuns returns how many times a query of an unfolded predicate has
// evaluated the program as written since NewEngine. A caller that reads
// only stored predicates and the EDB never causes one.
func (e *Engine) OnDemandRuns() int { return e.onDemand }

// answer returns the fact set that holds pred's current tuples, nil for an
// unknown predicate: the engine's own, or the reference evaluation's for an
// unfolded predicate.
func (e *Engine) answer(pred string) *relation.Bag {
	if !e.unfolded[pred] {
		return e.facts[pred]
	}
	if e.ref == nil || e.refAt != e.runs {
		if err := e.evalReference(); err != nil {
			// The engine ran the unfolded program over this EDB, and the
			// written one runs the same fact rules over it.
			panic("datalog: evaluating the program as written: " + err.Error())
		}
		e.onDemand++
	}
	return e.ref.facts[pred]
}

// evalReference runs the program as written cold over the engine's EDB
// sets, on a reference engine compiled from it on first need.
func (e *Engine) evalReference() error {
	if e.ref == nil {
		ref, err := newReference(e.written)
		if err != nil {
			return err
		}
		e.ref = ref
	}
	for p := range e.written.Arities {
		if e.ref.idb[p] {
			continue
		}
		var rows []relation.Tuple
		if f, ok := e.facts[p]; ok {
			rows = f.Tuples()
		}
		if err := e.ref.SetEDB(p, rows); err != nil {
			return err
		}
	}
	if err := e.ref.Run(); err != nil {
		return err
	}
	e.refAt = e.runs
	return nil
}

// Query runs the program against the given EDB and returns one predicate.
func Query(prog *Program, edb map[string]*relation.Relation, pred string) (*relation.Relation, error) {
	e, err := NewEngine(prog)
	if err != nil {
		return nil, err
	}
	for p, r := range edb {
		if err := e.SetEDBRelation(p, r); err != nil {
			return nil, err
		}
	}
	if err := e.Run(); err != nil {
		return nil, err
	}
	return e.Facts(pred), nil
}
