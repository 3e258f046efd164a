package scheduler

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Load is what the round loop tells its trigger.
type Load struct {
	Queued int // fill level of the incoming queue
	// Answered counts the replies handed out since the last round fired
	// (results, victim notifications, resubmit-cache answers). In the paper's
	// session model a client sends its next request only after the reply to
	// its previous one, so these are the only clients known to the scheduler
	// that can still join the batch.
	Answered  int
	Idle      time.Duration // since the last round ended
	RoundCost time.Duration // recent cost of one round (the loop's moving average)
}

// progressBound is the loop's progress rule: blocked pending requests need
// further rounds to observe lock releases, deadlock resolution and the
// starvation bound, and a trigger that names no deadline must not starve a
// queue that stays below its level (the paper's triggers are policies for
// *when* to run early, not for whether to run at all). Either gets a round
// once the loop has been idle this long.
const progressBound = 2 * time.Millisecond

// Trigger decides when the scheduler empties the incoming queue and runs a
// round. The paper (Section 3.3): "The trigger condition can be configured
// (dynamically). ... Possible conditions are, e.g. a lapse of time, a
// certain fill level of the incoming queue or a hybrid version."
type Trigger interface {
	// Fire reports why a round should run now (a metrics.Fired* reason), or
	// "" and how much more idle time would change that with the load otherwise
	// as it is — the loop's timer; 0 when only an arrival can.
	Fire(l Load) (why string, wait time.Duration)
	Name() string
}

// TimeTrigger fires after a fixed lapse of time.
type TimeTrigger struct{ Every time.Duration }

// Fire implements Trigger.
func (t TimeTrigger) Fire(l Load) (string, time.Duration) {
	return lapse(l, t.Every, metrics.FiredEvery)
}

// lapse fires why over a non-empty queue once the loop has been idle for due.
func lapse(l Load, due time.Duration, why string) (string, time.Duration) {
	switch {
	case l.Queued == 0:
		return "", 0
	case l.Idle >= due:
		return why, 0
	}
	return "", due - l.Idle
}

// Name implements Trigger.
func (t TimeTrigger) Name() string { return fmt.Sprintf("time(%s)", t.Every) }

// FillTrigger fires at a queue fill level.
type FillTrigger struct{ Level int }

// Fire implements Trigger.
func (t FillTrigger) Fire(l Load) (string, time.Duration) {
	if l.Queued >= t.Level {
		return metrics.FiredLevel, 0
	}
	return "", 0
}

// Name implements Trigger.
func (t FillTrigger) Name() string { return fmt.Sprintf("fill(%d)", t.Level) }

// HybridTrigger fires a round over a non-empty queue on the first of three
// conditions; Level and Every are upper bounds on batch size and delay.
// level: the queue holds Level requests. every: the loop has been idle for
// Every. returned: nobody is left to wait for — the queue holds at least as
// many requests as replies went out since the last round fired, so no client
// the scheduler knows of can still join the batch — and the loop has been
// idle for one round's cost, so rounds below Level take at most half of it
// and a workload whose round costs more than Every never fires early, and
// for a third of Every, so the round period of a light closed loop is set by
// the clock and not by how fast the box turns a request around (which, on a
// shared host, is not the same from one minute to the next). That
// assumes the closed-loop sessions of Load.Answered; a thinking or open-loop
// client only moves the fire between now and Every, never beyond it.
type HybridTrigger struct {
	Level int
	Every time.Duration
}

// Fire implements Trigger.
func (t HybridTrigger) Fire(l Load) (string, time.Duration) {
	if l.Queued >= t.Level {
		return metrics.FiredLevel, 0
	}
	if l.Queued >= l.Answered && l.RoundCost < t.Every {
		return lapse(l, max(l.RoundCost, t.Every/3), metrics.FiredReturned)
	}
	return lapse(l, t.Every, metrics.FiredEvery)
}

// Name implements Trigger.
func (t HybridTrigger) Name() string {
	return fmt.Sprintf("hybrid(%d,%s)", t.Level, t.Every)
}
