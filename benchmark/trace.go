package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/request"
)

// tracer owns the spans of a traced run. Spans are recorded from the
// benchmark's own files — around Submit in the client loop and around
// Qualify/QualifyIncremental in the protocol decorator — kept in memory, and
// only while enabled is set, so one process can measure an untraced
// reference phase and a traced phase back to back.
type tracer struct {
	base    time.Time
	enabled atomic.Bool
	// protos holds one decorator per protocol instance, indexed by shard.
	protos []*tracedProtocol
	// captureEvery is the spacing of the round captures cold_replay_us picks
	// from.
	captureEvery time.Duration
}

func newTracer(base time.Time, window time.Duration) *tracer {
	return &tracer{base: base, captureEvery: window / roundCaptures}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// roundCaptures is how many rounds a traced window copies as candidates for
// the cold replay; the one closest to the median pending size is replayed.
const roundCaptures = 16

// clientSpan is a client.txn or client.submit span. parent indexes the
// enclosing client.txn span in the same client's slice (-1 for none); the
// trace identifier is the transaction number of the first attempt.
type clientSpan struct {
	start, end int64
	ta         int64
	parent     int32
	submit     bool
}

// qualifySpan is one protocol.qualify span with its tags.
type qualifySpan struct {
	start, end                         int64
	shard                              int
	pending, history, delta, qualified int
	strategy                           string
}

// capturedRound is a copy of one qualification call's inputs.
type capturedRound struct {
	pending, history []request.Request
}

// tracedProtocol is the tracing decorator. It forwards every optional
// interface the engines probe for — a wrapper that hid QualifyIncremental
// would silently drop the engine to cold rounds and the trace would lie —
// with the fallback the engine itself applies when the inner protocol lacks
// the interface, so the decorated engine behaves exactly like the bare one.
type tracedProtocol struct {
	inner protocol.Protocol
	tr    *tracer
	shard int

	spans       []qualifySpan
	captures    []capturedRound
	nextCapture int64
}

var (
	_ protocol.IncrementalProtocol = (*tracedProtocol)(nil)
	_ protocol.StrategyReporter    = (*tracedProtocol)(nil)
	_ protocol.Parallelizable      = (*tracedProtocol)(nil)
	_ protocol.ObjectDecomposable  = (*tracedProtocol)(nil)
	_ protocol.Wounder             = (*tracedProtocol)(nil)
)

func (tr *tracer) wrap(p protocol.Protocol, shard int) protocol.Protocol {
	tp := &tracedProtocol{inner: p, tr: tr, shard: shard}
	tr.protos = append(tr.protos, tp)
	return tp
}

func (p *tracedProtocol) Name() string { return p.inner.Name() }

func (p *tracedProtocol) Qualify(pending, history []request.Request) ([]request.Request, error) {
	return p.traced(pending, history, 0, func() ([]request.Request, error) {
		return p.inner.Qualify(pending, history)
	})
}

func (p *tracedProtocol) QualifyIncremental(pending, history []request.Request, d protocol.Deltas) ([]request.Request, error) {
	ip, isInc := p.inner.(protocol.IncrementalProtocol)
	if !isInc {
		return p.Qualify(pending, history)
	}
	delta := len(d.PendingAdded) + len(d.PendingRemoved) + len(d.HistoryAppended) + len(d.HistoryRemoved)
	return p.traced(pending, history, delta, func() ([]request.Request, error) {
		return ip.QualifyIncremental(pending, history, d)
	})
}

func (p *tracedProtocol) traced(pending, history []request.Request, delta int, call func() ([]request.Request, error)) ([]request.Request, error) {
	if !p.tr.enabled.Load() {
		return call()
	}
	start := p.tr.now()
	if start >= p.nextCapture && len(pending) > 0 {
		p.captures = append(p.captures, capturedRound{
			pending: append([]request.Request(nil), pending...),
			history: append([]request.Request(nil), history...),
		})
		p.nextCapture = start + int64(p.tr.captureEvery)
		start = p.tr.now() // the copy is the benchmark's cost, not the protocol's
	}
	out, err := call()
	p.spans = append(p.spans, qualifySpan{
		start: start, end: p.tr.now(), shard: p.shard,
		pending: len(pending), history: len(history), delta: delta, qualified: len(out),
		strategy: p.LastStrategy(),
	})
	return out, err
}

func (p *tracedProtocol) LastStrategy() string {
	if sr, ok := p.inner.(protocol.StrategyReporter); ok {
		return sr.LastStrategy()
	}
	return ""
}

func (p *tracedProtocol) SetParallelism(n int) {
	if pp, ok := p.inner.(protocol.Parallelizable); ok {
		pp.SetParallelism(n)
	}
}

func (p *tracedProtocol) ObjectDecomposable() bool { return protocol.IsObjectDecomposable(p.inner) }

func (p *tracedProtocol) Wounded() []int64 {
	if w, ok := p.inner.(protocol.Wounder); ok {
		return w.Wounded()
	}
	return nil
}

// qualifySpans returns every shard's spans that ended inside [from, to),
// ordered by start.
func (tr *tracer) qualifySpans(from, to int64) []qualifySpan {
	var out []qualifySpan
	for _, p := range tr.protos {
		for _, s := range p.spans {
			if s.end >= from && s.end < to {
				out = append(out, s)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// roundStarts collapses start-ordered qualify spans into scheduling rounds
// and returns each round's first qualify start. A round qualifies each active
// shard once, so a new round begins when a shard repeats: on the single
// engine every span is a round, and a partitioned super-round is told from
// the next as long as consecutive rounds share an active shard (two rounds
// over disjoint shard sets would be counted as one).
func roundStarts(spans []qualifySpan) []int64 {
	var starts []int64
	var seen uint64
	for _, s := range spans {
		bit := uint64(1) << uint(s.shard)
		if len(starts) == 0 || seen&bit != 0 {
			starts = append(starts, s.start)
			seen = 0
		}
		seen |= bit
	}
	return starts
}

// coldReplay times one cold Qualify on a fresh protocol instance over the
// captured round whose pending size is closest to the median — what the
// incremental strategies save per round.
func (tr *tracer) coldReplay(fresh protocol.Protocol, spans []qualifySpan) (time.Duration, error) {
	if len(spans) == 0 {
		return 0, nil
	}
	sizes := make([]float64, len(spans))
	for i, s := range spans {
		sizes[i] = float64(s.pending)
	}
	med := median(sizes)
	var best *capturedRound
	for _, p := range tr.protos {
		for i := range p.captures {
			c := &p.captures[i]
			if best == nil || math.Abs(float64(len(c.pending))-med) < math.Abs(float64(len(best.pending))-med) {
				best = c
			}
		}
	}
	if best == nil {
		return 0, nil
	}
	start := time.Now()
	_, err := fresh.Qualify(best.pending, best.history)
	return time.Since(start), err
}

// writeSpans writes the recorded spans as JSON lines.
func (tr *tracer) writeSpans(path string, clients []*clientState) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name    string         `json:"name"`
		ID      int64          `json:"id"`
		Start   int64          `json:"start_ns"`
		End     int64          `json:"end_ns"`
		Parent  int64          `json:"parent"`
		TraceID int64          `json:"trace_id"`
		Tags    map[string]any `json:"tags,omitempty"`
	}
	// Span identifiers: client spans are (client+1)<<32 | index, qualify
	// spans count up from 1; 0 means "no parent" / "no transaction".
	for _, c := range clients {
		idOf := func(i int) int64 { return int64(c.id+1)<<32 | int64(i) }
		for i, s := range c.spans {
			if s.end == 0 {
				continue // transaction still open when the run ended
			}
			l := line{Name: "client.txn", ID: idOf(i), Start: s.start, End: s.end, TraceID: s.ta}
			if s.submit {
				l.Name = "client.submit"
				if s.parent >= 0 {
					l.Parent = idOf(int(s.parent))
				}
			}
			if err := enc.Encode(l); err != nil {
				f.Close()
				return err
			}
		}
	}
	id := int64(0)
	for _, p := range tr.protos {
		for _, s := range p.spans {
			id++
			err := enc.Encode(line{Name: "protocol.qualify", ID: id, Start: s.start, End: s.end, Tags: map[string]any{
				"shard": s.shard, "pending": s.pending, "history": s.history,
				"delta": s.delta, "qualified": s.qualified, "strategy": s.strategy,
			}})
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
