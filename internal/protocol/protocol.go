// Package protocol defines scheduling protocols: the decision procedure that
// maps (pending requests, history) to the subset of pending requests
// qualified for execution, in execution order. This is the paper's central
// abstraction — a protocol can be programmed declaratively (SQL via
// internal/minisql, Datalog via internal/datalog) or imperatively (the
// hand-coded baselines the paper says are costly to build and change).
package protocol

import (
	"cmp"
	"slices"

	"repro/internal/request"
)

// Protocol decides which pending requests may execute now.
//
// Implementations are not safe for concurrent use; the scheduler serialises
// rounds, which is inherent to the paper's set-at-a-time design.
type Protocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// Qualify returns the pending requests that can execute without
	// violating the protocol, in execution order. It must not mutate its
	// arguments. A protocol returns the rows its relation holds: a
	// declarative one reads requests through a five- or seven-column
	// relation, and the fields outside it — Class always, Priority too
	// through the five-column form — are restored by the scheduler from its
	// pending copy of each (TA, IntraTA) key, which also carries the row.
	// The result may be the protocol's own buffer, which the caller may
	// modify and which stays valid until the protocol's next Qualify or
	// QualifyIncremental call: the scheduler consumes it within the round.
	Qualify(pending, history []request.Request) ([]request.Request, error)
}

// Deltas describes how the scheduler's pending and history stores changed
// since the previous qualification call. Neither store emits the same
// request on both of its sides: each cancels add-then-remove (admitted or
// executed and then dropped within one window — net absent) and
// remove-then-re-add (slot migration bounced the row out and back — net
// present) in place, so PendingAdded and PendingRemoved are disjoint, as are
// HistoryAppended and HistoryRemoved, and protocols may apply either pair in
// either order.
//
// The slices are views into the stores' change logs: they are valid only for
// the duration of the qualification call, and protocols that need the
// requests afterwards must copy them. The requests carry the rows the stores
// built for them (request.Request.Row), which protocols may keep and must
// not modify: the built-in ones hand the rows — the seven columns, or their
// five-column prefix — to the SQL view cache's base bags and the Datalog
// EDB as they are.
type Deltas struct {
	PendingAdded    []request.Request
	PendingRemoved  []request.Request
	HistoryAppended []request.Request
	HistoryRemoved  []request.Request
}

// IncrementalProtocol is implemented by protocols that can qualify a round
// from the per-round change set instead of re-materialising the full pending
// and history relations. The full slices are still passed — they are the
// ground truth the protocol may fall back to (first call, or any detected
// divergence between its incremental state and the slices).
//
// The contract: the deltas describe exactly the change since the previous
// QualifyIncremental call on this protocol instance. A direct Qualify call
// invalidates the incremental state; the next QualifyIncremental rebuilds
// from the full slices.
type IncrementalProtocol interface {
	Protocol
	QualifyIncremental(pending, history []request.Request, d Deltas) ([]request.Request, error)
}

// Parallelizable is implemented by no protocol and called by no scheduler:
// every qualification evaluates on the calling goroutine. It remains only
// because the benchmark's tracing decorator asserts it (benchmark/trace.go)
// and that decorator's test calls SetParallelism (benchmark/main_test.go);
// it goes when those two lines do.
type Parallelizable interface {
	SetParallelism(n int)
}

// StrategyReporter is implemented by protocols that can name the evaluation
// path their last Qualify took (e.g. the Datalog engine's cold / none /
// recompute as the round's deltas dictate, or the SQL protocol's view-cache
// build vs maintenance). The scheduler records it per round in
// metrics.RoundStats.
type StrategyReporter interface {
	// LastStrategy returns the evaluation strategy of the last
	// qualification, or "" if none has run.
	LastStrategy() string
}

// ByID orders requests by global arrival number, the default execution order
// (Listing 1's ORDER BY id).
func ByID(rs []request.Request) {
	slices.SortFunc(rs, func(a, b request.Request) int { return cmp.Compare(a.ID, b.ID) })
}

// ByPriorityThenID orders by descending SLA priority, then arrival number.
func ByPriorityThenID(rs []request.Request) {
	slices.SortFunc(rs, func(a, b request.Request) int {
		if a.Priority != b.Priority {
			return cmp.Compare(b.Priority, a.Priority)
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// KeySet builds the set of (TA, IntraTA) keys of a request slice.
func KeySet(rs []request.Request) map[request.Key]bool {
	out := make(map[request.Key]bool, len(rs))
	for _, r := range rs {
		out[r.Key()] = true
	}
	return out
}

// ObjectDecomposable is implemented by protocols whose qualification
// decision factors by object: whether a pending request qualifies depends
// only on the pending requests and history rows of the same object (plus
// terminations, which carry no object and always qualify). Evaluating such a
// protocol independently per object-hash partition produces exactly its
// global qualified set — the property the partitioned scheduler
// (internal/scheduler.PartitionedEngine) relies on. Protocols that join
// across objects — SLA priority's global beats relation, wound-wait's wound
// derivation — must not claim it.
type ObjectDecomposable interface {
	// ObjectDecomposable reports whether the protocol's decision factors by
	// object.
	ObjectDecomposable() bool
}

// IsObjectDecomposable reports whether p claims per-object decomposability.
// Protocols that do not implement the marker are conservatively treated as
// not decomposable.
func IsObjectDecomposable(p Protocol) bool {
	od, ok := p.(ObjectDecomposable)
	return ok && od.ObjectDecomposable()
}

// FCFS qualifies every pending request in arrival (ID) order: the paper's
// non-scheduling baseline. The middleware executes qualified requests
// through storage.Server.ExecScheduled, which takes no locks, so under FCFS
// nothing orders conflicting requests, and a round costs the middleware's
// own work plus one sort. Its zero value is ready to use.
type FCFS struct {
	out []request.Request // the qualified set, reused round after round
}

// Name implements Protocol.
func (*FCFS) Name() string { return "fcfs" }

// ObjectDecomposable implements the marker: FCFS qualifies everything, which
// trivially factors by object.
func (*FCFS) ObjectDecomposable() bool { return true }

// Qualify implements Protocol.
func (p *FCFS) Qualify(pending, _ []request.Request) ([]request.Request, error) {
	p.out = append(p.out[:0], pending...)
	ByID(p.out)
	return p.out, nil
}

// Adaptive switches between two protocols based on batch load, the paper's
// Section 5 "adaptive consistency scheduler which varies the applied
// consistency protocols": below Threshold pending requests it uses Strict,
// at or above it uses Relaxed.
type Adaptive struct {
	Strict    Protocol
	Relaxed   Protocol
	Threshold int

	// Switches counts Strict->Relaxed and Relaxed->Strict transitions.
	Switches int
	lastWasRelaxed

	name string
}

type lastWasRelaxed struct{ relaxed, initialised bool }

// NewAdaptive builds an adaptive protocol.
func NewAdaptive(strict, relaxed Protocol, threshold int) *Adaptive {
	return &Adaptive{
		Strict: strict, Relaxed: relaxed, Threshold: threshold,
		name: "adaptive(" + strict.Name() + "," + relaxed.Name() + ")",
	}
}

// Name implements Protocol.
func (a *Adaptive) Name() string { return a.name }

// Active returns the protocol that a batch of the given size would use.
func (a *Adaptive) Active(pendingLen int) Protocol {
	if pendingLen >= a.Threshold {
		return a.Relaxed
	}
	return a.Strict
}

// ObjectDecomposable implements the marker: the adaptive pair factors by
// object only when both constituents do.
func (a *Adaptive) ObjectDecomposable() bool {
	return IsObjectDecomposable(a.Strict) && IsObjectDecomposable(a.Relaxed)
}

// Qualify implements Protocol.
func (a *Adaptive) Qualify(pending, history []request.Request) ([]request.Request, error) {
	useRelaxed := len(pending) >= a.Threshold
	if a.initialised && useRelaxed != a.relaxed {
		a.Switches++
	}
	a.relaxed = useRelaxed
	a.initialised = true
	return a.Active(len(pending)).Qualify(pending, history)
}

// Wounded implements Wounder: the aborts declared by the constituent that
// ran the last Qualify, none when that one declares none (or before the
// first Qualify). Without it a wound-wait constituent's wounds would never
// reach the scheduler, and its older transactions would qualify against a
// wounded holder that is never aborted.
func (a *Adaptive) Wounded() []int64 {
	last := a.Strict
	if a.relaxed {
		last = a.Relaxed
	}
	if w, ok := last.(Wounder); ok && a.initialised {
		return w.Wounded()
	}
	return nil
}
