// Package request defines the unit of scheduling: the request model from
// paper Table 2 (ID, TA, INTRATA, Operation, Object), transactions as
// sequences of requests, and conversions to the relational form consumed by
// the declarative protocol engines.
package request

import (
	"fmt"

	"repro/internal/relation"
)

// Op is a request's operation type, exactly the four values of the paper:
// read, write, abort, commit.
type Op byte

// Operation types.
const (
	Read   Op = 'r'
	Write  Op = 'w'
	Abort  Op = 'a'
	Commit Op = 'c'
)

// NoObject is the object number of commit/abort requests, which touch no
// object. The paper's tables would hold NULL here; a negative sentinel keeps
// the SQL and Datalog formulations equivalent (real objects are >= 0, so
// lock joins can never match a termination request).
const NoObject int64 = -1

// Valid reports whether the operation is one of the four defined values.
func (o Op) Valid() bool {
	switch o {
	case Read, Write, Abort, Commit:
		return true
	}
	return false
}

// String returns the single-letter encoding used in the relations ("r", "w",
// "a", "c"), matching the constants in the paper's Listing 1. The four valid
// letters are constants, so the conversion allocates nothing; an invalid op
// is converted as its rune.
func (o Op) String() string {
	switch o {
	case Read:
		return "r"
	case Write:
		return "w"
	case Abort:
		return "a"
	case Commit:
		return "c"
	}
	return string(rune(o))
}

// ops and opValues are the four operations and their relational values,
// interned once so that building a row never takes the symbol table's lock
// and reading one back compares symbols instead of building a string.
var (
	ops      = [...]Op{Read, Write, Abort, Commit}
	opValues = [...]relation.Value{
		relation.String(Read.String()), relation.String(Write.String()),
		relation.String(Abort.String()), relation.String(Commit.String()),
	}
)

// value returns the operation's relational value, its letter as a string.
func (o Op) value() relation.Value {
	for i, op := range ops {
		if o == op {
			return opValues[i]
		}
	}
	return relation.String(o.String())
}

// opOf maps an operation column back to its Op.
func opOf(v relation.Value) (Op, error) {
	for i, ov := range opValues {
		if v.Equal(ov) {
			return ops[i], nil
		}
	}
	return 0, fmt.Errorf("request: invalid operation %s", v.Encode())
}

// ParseOp parses the single-letter encoding.
func ParseOp(s string) (Op, error) {
	if len(s) != 1 || !Op(s[0]).Valid() {
		return 0, fmt.Errorf("request: invalid operation %q", s)
	}
	return Op(s[0]), nil
}

// IsTermination reports whether the operation ends its transaction.
func (o Op) IsTermination() bool { return o == Abort || o == Commit }

// Request is one schedulable operation (paper Table 2). Class and Priority
// extend the paper's schema for the SLA protocols it motivates (premium vs
// free customers). ID is the global arrival order, so it also serves as the
// arrival stamp: the seven-column form's arrival column reads ID.
//
// A request carries its relational row once a store has handed it to a
// protocol (WithRow): one seven-column instance, built once, that every
// copy of the request shares — the stores and their deltas, both protocol adapters, the
// SQL view cache's base bags and the Datalog EDB — so a request is
// converted to relational form once in its life instead of at every place
// it is kept. The row is immutable, and a request's fields must not change
// after it is built; WithID is the one renumbering, and it drops the row.
type Request struct {
	ID      int64 // consecutive request number (global arrival order)
	TA      int64 // transaction number
	IntraTA int64 // request number within the transaction
	Op      Op
	Object  int64 // object number (row key); unused for commit/abort

	Class    string // SLA class name ("" when unused)
	Priority int64  // larger is more important

	// row is the shared seven-column form, nil until WithRow builds it. A
	// pointer, not a Tuple field, keeps Request at 72 bytes (the scheduler's
	// TestRequestAndWaiterStaySmall gives the reasons).
	row *[7]relation.Value
}

// Validate checks internal consistency.
func (r Request) Validate() error {
	if !r.Op.Valid() {
		return fmt.Errorf("request: invalid op %q in request %d", r.Op, r.ID)
	}
	if r.IntraTA < 0 {
		return fmt.Errorf("request: negative intra-transaction number in request %d", r.ID)
	}
	return nil
}

func (r Request) String() string {
	if r.Op.IsTermination() {
		return fmt.Sprintf("[%d] ta%d/%d %s", r.ID, r.TA, r.IntraTA, r.Op)
	}
	return fmt.Sprintf("[%d] ta%d/%d %s(%d)", r.ID, r.TA, r.IntraTA, r.Op, r.Object)
}

// Equal reports whether r and o have the same fields. Their rows are not
// compared: a row is derived from the fields, and one copy of a request may
// carry it while another does not yet, so == on Requests is not equality.
func (r Request) Equal(o Request) bool {
	return r.ID == o.ID && r.TA == o.TA && r.IntraTA == o.IntraTA && r.Op == o.Op &&
		r.Object == o.Object && r.Class == o.Class && r.Priority == o.Priority
}

// Key identifies a request within its transaction, the unit the SS2PL query
// qualifies (paper: "SELECT ta, intrata ...").
type Key struct {
	TA      int64
	IntraTA int64
}

// Key returns the request's (TA, IntraTA) key.
func (r Request) Key() Key { return Key{TA: r.TA, IntraTA: r.IntraTA} }

// Conflicts reports whether two requests conflict in the classical sense:
// same object, different transactions, at least one write. Termination
// operations never conflict on objects.
func Conflicts(a, b Request) bool {
	if a.TA == b.TA {
		return false
	}
	if a.Op.IsTermination() || b.Op.IsTermination() {
		return false
	}
	return a.Object == b.Object && (a.Op == Write || b.Op == Write)
}

// Schema returns the relational schema of the paper's requests/history/rte
// tables (Table 2).
func Schema() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "ta", Kind: relation.KindInt},
		relation.Column{Name: "intrata", Kind: relation.KindInt},
		relation.Column{Name: "operation", Kind: relation.KindString},
		relation.Column{Name: "object", Kind: relation.KindInt},
	)
}

// ExtendedSchema is Schema plus the SLA columns (priority, arrival).
func ExtendedSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "ta", Kind: relation.KindInt},
		relation.Column{Name: "intrata", Kind: relation.KindInt},
		relation.Column{Name: "operation", Kind: relation.KindString},
		relation.Column{Name: "object", Kind: relation.KindInt},
		relation.Column{Name: "priority", Kind: relation.KindInt},
		relation.Column{Name: "arrival", Kind: relation.KindInt},
	)
}

// WithRow returns r carrying its row, built now if r has none. The stores
// call it when they first hand a request to a protocol; every later copy
// shares the row.
func (r Request) WithRow() Request {
	if r.row == nil {
		r.row = r.newRow()
	}
	return r
}

// WithID returns r renumbered to id. A row built for the old number does not
// follow: the copy builds its own when a store takes it in.
func (r Request) WithID(id int64) Request {
	r.ID, r.row = id, nil
	return r
}

func (r Request) newRow() *[7]relation.Value {
	return &[7]relation.Value{
		relation.Int(r.ID), relation.Int(r.TA), relation.Int(r.IntraTA),
		r.Op.value(), relation.Int(r.Object),
		relation.Int(r.Priority), relation.Int(r.ID),
	}
}

// Row returns the request's seven-column SLA form (id, ta, intrata,
// operation, object, priority, arrival): the shared row when r carries one,
// a freshly built one otherwise (a request no store has seen). Callers must
// not modify it.
func (r Request) Row() relation.Tuple {
	if r.row != nil {
		return r.row[:]
	}
	return r.newRow()[:]
}

// Tuple returns the paper's five-column form: the row's first five columns,
// capped so that an append copies instead of writing into the row.
func (r Request) Tuple() relation.Tuple { return r.Row()[:5:5] }

// AppendTuples appends the cols-column form of each request to dst — seven
// columns (Row) or five (Tuple) — and returns the extended slice. The tuples
// are the requests' rows, not copies.
func AppendTuples(dst []relation.Tuple, rs []Request, cols int) []relation.Tuple {
	for _, r := range rs {
		dst = append(dst, r.Row()[:cols:cols])
	}
	return dst
}

// FromTuple parses a five- or seven-column tuple back into a Request. The
// seven-column form's arrival column is not read: it is the ID.
func FromTuple(t relation.Tuple) (Request, error) {
	if len(t) != 5 && len(t) != 7 {
		return Request{}, fmt.Errorf("request: tuple arity %d", len(t))
	}
	op, err := opOf(t[3])
	if err != nil {
		return Request{}, err
	}
	r := Request{
		ID:      t[0].AsInt(),
		TA:      t[1].AsInt(),
		IntraTA: t[2].AsInt(),
		Op:      op,
		Object:  t[4].AsInt(),
	}
	if len(t) == 7 {
		r.Priority = t[5].AsInt()
	}
	return r, nil
}

// ToRelation converts requests to the five-column relation over their rows.
func ToRelation(rs []Request) *relation.Relation {
	out := relation.New(Schema())
	for _, r := range rs {
		out.MustAppend(r.Tuple())
	}
	return out
}

// ToExtendedRelation converts requests to the seven-column relation over
// their rows.
func ToExtendedRelation(rs []Request) *relation.Relation {
	out := relation.New(ExtendedSchema())
	for _, r := range rs {
		out.MustAppend(r.Row())
	}
	return out
}

// AppendFromTuples parses rows of requests (a relation's Rows, say) and
// appends them to dst.
func AppendFromTuples(dst []Request, rows []relation.Tuple) ([]Request, error) {
	for _, t := range rows {
		r, err := FromTuple(t)
		if err != nil {
			return dst, err
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// Transaction is an ordered sequence of requests sharing a TA number.
type Transaction struct {
	TA       int64
	Requests []Request
}

// Validate checks that all requests share the TA, IntraTA numbers are
// consecutive from 0, and only the final request terminates.
func (tx Transaction) Validate() error {
	for i, r := range tx.Requests {
		if err := r.Validate(); err != nil {
			return err
		}
		if r.TA != tx.TA {
			return fmt.Errorf("request: transaction %d contains request of ta %d", tx.TA, r.TA)
		}
		if r.IntraTA != int64(i) {
			return fmt.Errorf("request: transaction %d has gap at position %d (intrata %d)", tx.TA, i, r.IntraTA)
		}
		if r.Op.IsTermination() && i != len(tx.Requests)-1 {
			return fmt.Errorf("request: transaction %d terminates at position %d of %d", tx.TA, i, len(tx.Requests))
		}
	}
	return nil
}

// Builder incrementally constructs a transaction.
type Builder struct {
	ta      int64
	class   string
	prio    int64
	nextOp  int64
	reqs    []Request
	assignI func() int64 // global ID assigner
}

// NewBuilder creates a transaction builder. assignID supplies consecutive
// global request IDs; pass nil to leave IDs zero (the scheduler reassigns
// them on admission).
func NewBuilder(ta int64, assignID func() int64) *Builder {
	return &Builder{ta: ta, assignI: assignID}
}

// SetClass sets the SLA class and priority applied to subsequent requests.
func (b *Builder) SetClass(class string, priority int64) *Builder {
	b.class = class
	b.prio = priority
	return b
}

func (b *Builder) add(op Op, object int64) *Builder {
	var id int64
	if b.assignI != nil {
		id = b.assignI()
	}
	b.reqs = append(b.reqs, Request{
		ID: id, TA: b.ta, IntraTA: b.nextOp, Op: op, Object: object,
		Class: b.class, Priority: b.prio,
	})
	b.nextOp++
	return b
}

// Read appends a read of object.
func (b *Builder) Read(object int64) *Builder { return b.add(Read, object) }

// Write appends a write of object.
func (b *Builder) Write(object int64) *Builder { return b.add(Write, object) }

// Commit appends a commit and returns the finished transaction.
func (b *Builder) Commit() Transaction {
	b.add(Commit, NoObject)
	return Transaction{TA: b.ta, Requests: b.reqs}
}

// Abort appends an abort and returns the finished transaction.
func (b *Builder) Abort() Transaction {
	b.add(Abort, NoObject)
	return Transaction{TA: b.ta, Requests: b.reqs}
}
