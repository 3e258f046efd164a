// The online rebalancer of the partitioned scheduler: per-slot and per-shard
// load accounting folded out of each super-round, a max/mean trigger checked
// on a fixed cadence, and the migration step that moves a slot's rows between
// shard stores.
//
// Load is a decayed per-round account: every qualified data request adds one
// unit to its slot and shard, every still-pending request adds a fraction
// (blocked work occupies a shard even when nothing qualifies there), and the
// whole account decays each round — so the trigger compares recent behaviour,
// not lifetime totals. When the hottest shard's load exceeds Trigger× the
// mean, the planner greedily moves the hottest slots it owns to the coldest
// shards; a slot too hot to move without overshooting is rotated to the
// coldest shard on a cooldown instead (a slot lives on one shard, and a
// single object's requests must collocate).
//
// Migration is safe mid-stream because it runs between super-rounds on the
// sequencer's goroutine: in-flight executor plans are quiesced first (undo
// and exec steps are ordered only per shard FIFO, and migration changes the
// shard), then the routing table swaps, then each moved slot's pending and
// history rows are extracted from their old shards — emitting exact
// remove-deltas — and re-admitted on their new ones — emitting add-deltas —
// so the warm incremental protocols on both sides patch instead of
// rebuilding. Terminations routed before the swap are healed at commit time
// by the sequencer's late-copy injection (partition.go).
package scheduler

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/request"
	"repro/internal/store"
)

// RebalanceConfig parameterises the slot directory and the rebalancer.
// The zero value disables automatic rebalancing (Trigger == 0) and uses
// store.DefaultSlots.
type RebalanceConfig struct {
	// Slots is the slot-directory size (<= 0 selects store.DefaultSlots).
	Slots int
	// Trigger enables the automatic rebalancer: when the max/mean shard
	// load ratio exceeds it at a check, slots move. <= 0 disables.
	Trigger float64
	// Every is the check cadence in super-rounds (<= 0 selects 16).
	Every int
}

// maxMoves caps the slot moves planned per check.
const maxMoves = 8

// loadDecay is the per-round decay of the load accounts (a ~16-round
// half-life scale: steady per-round work x accumulates to ~16x).
const loadDecay = 1.0 / 16

// pendingWeight is how much one still-pending request counts next to one
// qualified request in the load accounts.
const pendingWeight = 0.25

// rotateCooldown is the minimum number of check intervals between two
// rotations of an irreducible hot slot (see planMoves): rotation trades
// migration churn for time-shared load, so it runs on a longer period than
// ordinary gap-filling moves — each rotation lets the destination shard
// absorb the slot for a few accounting rounds before the next hand-off.
const rotateCooldown = 4

// rebalancer holds the load accounts and policy state. All access is on the
// round loop's goroutine.
type rebalancer struct {
	cfg        RebalanceConfig
	slotWork   []float64
	shardWork  []float64
	lastCheck  int
	lastRotate int
	moves      int
}

func newRebalancer(cfg RebalanceConfig, slots, parts int) *rebalancer {
	if cfg.Every <= 0 {
		cfg.Every = 16
	}
	return &rebalancer{
		cfg:       cfg,
		slotWork:  make([]float64, slots),
		shardWork: make([]float64, parts),
	}
}

// ForceRebalance queues slot moves to apply at the start of the next
// super-round, regardless of the automatic trigger (tests, operational
// tooling). Safe for concurrent use; invalid moves fail that round. A
// one-shard engine has nowhere to move a slot and ignores them.
func (e *Engine) ForceRebalance(moves ...store.SlotMove) {
	if len(e.shards) == 1 {
		return
	}
	e.forcedMu.Lock()
	e.forced = append(e.forced, moves...)
	e.forcedMu.Unlock()
}

// rebalance runs between super-rounds, after the admission queues were
// drained: apply forced or load-planned slot moves and migrate the moved
// slots' rows between shard stores. Once the table has ever moved, re-route
// the drained admissions against the current table — an op pushed while a
// swap raced its Enqueue routing lands here un-admitted, so a stale route
// never becomes store state.
func (e *Engine) rebalance() error {
	if moves := e.pendingMoves(); len(moves) > 0 {
		if err := e.applyMoves(moves); err != nil {
			return err
		}
	}
	if e.part.Version() > 0 {
		e.rerouteDrained()
	}
	return nil
}

// pendingMoves returns the slot moves to apply this round: externally forced
// ones first, else the planner's when the check cadence and trigger fire.
func (e *Engine) pendingMoves() []store.SlotMove {
	e.forcedMu.Lock()
	moves := e.forced
	e.forced = nil
	e.forcedMu.Unlock()
	if len(moves) > 0 {
		return moves
	}
	rb := e.reb
	if rb == nil || e.rounds-rb.lastCheck < rb.cfg.Every {
		return nil
	}
	rb.lastCheck = e.rounds
	return e.planMoves()
}

// foldLoads folds one super-round into the load accounts: decay, then one
// unit per qualified data request and pendingWeight per leftover pending one,
// attributed to the request's slot and its current shard.
func (e *Engine) foldLoads() {
	rb := e.reb
	if rb == nil {
		return
	}
	for i := range rb.slotWork {
		rb.slotWork[i] -= rb.slotWork[i] * loadDecay
	}
	for i := range rb.shardWork {
		rb.shardWork[i] -= rb.shardWork[i] * loadDecay
	}
	for _, s := range e.active {
		acc := 0.0
		for _, r := range e.shards[s].qual {
			if r.Op.IsTermination() {
				continue
			}
			rb.slotWork[e.part.SlotOf(r.Object)]++
			acc++
		}
		for _, r := range e.shards[s].pending.Live() {
			if r.Op.IsTermination() {
				continue
			}
			rb.slotWork[e.part.SlotOf(r.Object)] += pendingWeight
			acc += pendingWeight
		}
		rb.shardWork[s] += acc
	}
}

// planMoves is the greedy planner: while the hottest shard exceeds Trigger×
// the mean, move its hottest slot that fits into the gap to the coldest
// shard — or, when every slot it owns overshoots the gap, rotate the
// hottest one there on a cooldown.
func (e *Engine) planMoves() []store.SlotMove {
	rb := e.reb
	load := append([]float64(nil), rb.shardWork...)
	total := 0.0
	for _, v := range load {
		total += v
	}
	mean := total / float64(len(e.shards))
	if mean <= 0 {
		return nil
	}
	// owner[slot] is the shard the slot sits on in the simulated placement.
	owner := make([]int, e.part.Slots())
	for i := range owner {
		owner[i] = e.part.RouteOf(i)
	}
	var moves []store.SlotMove
	for len(moves) < maxMoves {
		h, c := 0, 0
		for s := 1; s < len(e.shards); s++ {
			if load[s] > load[h] {
				h = s
			}
			if load[s] < load[c] {
				c = s
			}
		}
		if h == c || load[h] <= rb.cfg.Trigger*mean {
			break
		}
		gap := load[h] - load[c]
		best, bestW := -1, 0.0   // hottest owned slot that fits the gap
		hottest, hotW := -1, 0.0 // hottest owned slot overall
		for slot, o := range owner {
			if o != h {
				continue
			}
			w := rb.slotWork[slot]
			if w <= 0 {
				continue
			}
			if w > hotW {
				hottest, hotW = slot, w
			}
			if w < gap && w > bestW {
				best, bestW = slot, w
			}
		}
		if hottest < 0 {
			break // no slot the shard owns carries load
		}
		if best < 0 {
			// Every owned slot overshoots the gap: the shard's heat is one
			// irreducible slot — typically a single hot object, whose
			// requests must collocate to keep lock semantics, so no static
			// placement can balance it. Time-share it instead: rotate the
			// slot to the coldest shard, so over a window the irreducible
			// load spreads across the fleet rather than pinning one member.
			// Rotation trades migration churn for fairness, so it runs on a
			// cooldown much longer than the check cadence, and at most one
			// rotation is planned per check (in the simulated account the
			// destination becomes the hottest; further planning would just
			// move it back).
			if e.rounds-rb.lastRotate >= rotateCooldown*rb.cfg.Every {
				rb.lastRotate = e.rounds
				moves = append(moves, store.SlotMove{Slot: hottest, To: c})
				owner[hottest] = c
				load[h] -= hotW
				load[c] += hotW
				rb.moves++
			}
			break
		}
		moves = append(moves, store.SlotMove{Slot: best, To: c})
		owner[best] = c
		load[h] -= bestW
		load[c] += bestW
		rb.moves++
	}
	if len(moves) > 0 {
		// Commit the simulated post-move placement back into the accounts:
		// the EWMA decays over ~16 rounds, so without this the next checks
		// would keep seeing the pre-move heat and strip the formerly hot
		// shard far past balance (move thrash).
		copy(rb.shardWork, load)
	}
	return moves
}

// applyMoves installs moves as a new routing-table version and migrates the
// moved slots' rows from their old shards to their new ones. Sequencer
// goroutine only.
func (e *Engine) applyMoves(moves []store.SlotMove) error {
	// Record the moved slots and their pre-swap shards: those are the
	// shards rows must migrate out of.
	movedSlots := make(map[int]bool, len(moves))
	var sources []int
	var seen [MaxPartitions]bool
	for _, m := range moves {
		if movedSlots[m.Slot] {
			continue
		}
		if m.Slot < 0 || m.Slot >= e.part.Slots() {
			continue // Apply below reports the error
		}
		movedSlots[m.Slot] = true
		if s := e.part.RouteOf(m.Slot); !seen[s] {
			seen[s] = true
			sources = append(sources, s)
		}
	}
	// In-flight executor plans may still carry exec or undo steps against
	// the source histories; ordering is only per-shard FIFO, so quiesce
	// before any row changes shards.
	e.quiesce()
	if _, err := e.part.Apply(moves); err != nil {
		return err
	}
	sort.Ints(sources)
	for _, s := range sources {
		e.migrateFrom(s, movedSlots)
	}
	return nil
}

// migrateFrom moves every row of the moved slots that no longer routes to
// shard s onto its new shard, patching the affinity index and both sides'
// delta logs.
func (e *Engine) migrateFrom(s int, movedSlots map[int]bool) {
	src := e.shards[s]
	match := func(obj int64) bool {
		return movedSlots[e.part.SlotOf(obj)] && e.part.ForObject(obj) != s
	}
	src.pending.ExtractMatching(match, func(r request.Request, since int) {
		d := e.part.ForObject(r.Object)
		e.affinity.Touch(r.TA, d)
		de := e.shards[d]
		de.pending.Admit(r)
		de.pending.MergeClock(r.TA, since)
	})
	for _, r := range src.hist.ExtractMatching(match) {
		d := e.part.ForObject(r.Object)
		e.affinity.Touch(r.TA, d)
		e.shards[d].hist.AppendLiveOnly(r)
	}
}

// quiesce waits until no executor plan is in flight: the executor that
// takes the count to zero wakes it. Sequencer goroutine only — the only one
// that adds plans, so the count only falls meanwhile.
func (e *Engine) quiesce() {
	if e.quiet == nil {
		return
	}
	for e.inflight.Load() > 0 {
		<-e.quiet
	}
}

// rerouteDrained re-routes a drained admission batch against the current
// routing table before it is admitted: ops pushed concurrently with a table
// swap may carry a stale route, and once the table has ever moved every
// drain pays this (cheap) pass so a stale route never becomes store state.
// A re-routed request marks its new shard touched, as Enqueue would.
func (e *Engine) rerouteDrained() {
	type routed struct {
		op shardOp
		to int
	}
	var extra []routed
	for s, sh := range e.shards {
		kept := sh.ops[:0]
		for _, op := range sh.ops {
			if op.req.Op.IsTermination() {
				kept = append(kept, op)
				continue
			}
			d := e.part.ForObject(op.req.Object)
			if d == s {
				kept = append(kept, op)
				continue
			}
			e.affinity.Touch(op.req.TA, d)
			extra = append(extra, routed{op: op, to: d})
		}
		sh.ops = kept
	}
	for _, r := range extra {
		e.shards[r.to].ops = append(e.shards[r.to].ops, r.op)
	}
}

// LoadReport snapshots the rebalancer's load accounts for metrics export:
// per-shard loads, the max/mean imbalance, the topSlots hottest slots, and
// the move counters. ok is false when the automatic rebalancer is disabled.
// Round-loop goroutine only.
func (e *Engine) LoadReport(topSlots int) (metrics.LoadSnapshot, bool) {
	rb := e.reb
	if rb == nil {
		return metrics.LoadSnapshot{}, false
	}
	ls := metrics.LoadSnapshot{
		Shards:  append([]float64(nil), rb.shardWork...),
		Moves:   rb.moves,
		Version: e.part.Version(),
	}
	total, max := 0.0, 0.0
	for _, v := range ls.Shards {
		total += v
		if v > max {
			max = v
		}
	}
	if total > 0 {
		ls.Imbalance = max / (total / float64(len(ls.Shards)))
	}
	for n := 0; n < topSlots; n++ {
		best, bestW := -1, 0.0
		for slot, w := range rb.slotWork {
			if w <= bestW {
				continue
			}
			taken := false
			for _, t := range ls.TopSlots {
				if t.Slot == slot {
					taken = true
					break
				}
			}
			if !taken {
				best, bestW = slot, w
			}
		}
		if best < 0 {
			break
		}
		ls.TopSlots = append(ls.TopSlots, metrics.SlotLoad{Slot: best, Shard: e.part.RouteOf(best), Load: bestW})
	}
	return ls, true
}
