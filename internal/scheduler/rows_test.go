package scheduler

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/request"
	"repro/internal/storage"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestRequestAndWaiterStaySmall pins the sizes the round loop copies by
// value. A Request is copied by every store swap, sort and plan step: with
// its row as a relation.Tuple field (96 bytes) instead of a pointer,
// runtime.duffcopy grew from 0.44 to 1.47 s of an 18.7 s part_hot profile
// and commits fell to 0.91x. The middleware's waiter is a map value, and Go
// stores a map value above 128 bytes out of line — one allocation per
// registered submission, which was a quarter of bulk_datalog's allocations
// with the 96-byte Request.
func TestRequestAndWaiterStaySmall(t *testing.T) {
	if n := unsafe.Sizeof(request.Request{}); n > 72 {
		t.Errorf("request.Request is %d bytes, want at most 72", n)
	}
	if n := unsafe.Sizeof(waiter{}); n > 128 {
		t.Errorf("waiter is %d bytes, want at most 128 (a larger map value is stored out of line)", n)
	}
}

// rowGuard is the aliasing guard for the rows requests carry: the stores
// build a request's row once and every copy — both stores, their deltas,
// the protocols' base relations — holds that instance, which nothing may
// write into. observe checks that every request in the stores carries a
// row and that every copy of it shares that one, records each row the
// first time a store shows it, after checking that it is the row the
// request's fields describe, with a checksum, and re-checks every recorded
// row, those GC has dropped from the stores included.
type rowGuard struct {
	t    *testing.T
	rows map[int64]guardedRow
	live map[int64]relation.Tuple
}

type guardedRow struct {
	row relation.Tuple
	sum uint64
}

func newRowGuard(t *testing.T) *rowGuard {
	return &rowGuard{t: t, rows: map[int64]guardedRow{}, live: map[int64]relation.Tuple{}}
}

func (g *rowGuard) observe(e *Engine, round int) {
	g.t.Helper()
	clear(g.live)
	for s := 0; s < e.Partitions(); s++ {
		sh := e.Shard(s)
		for _, rs := range [2][]request.Request{sh.pending.Live(), sh.hist.Live()} {
			for _, r := range rs {
				row := r.Row()
				if &row[0] != &r.Row()[0] {
					g.t.Fatalf("round %d: %v carries no row", round, r)
				}
				if other, ok := g.live[r.ID]; ok && &other[0] != &row[0] {
					g.t.Fatalf("round %d: two copies of %v hold different rows", round, r)
				}
				g.live[r.ID] = row
				if _, ok := g.rows[r.ID]; ok {
					continue
				}
				if want := r.WithID(r.ID).Row(); !row.Equal(want) {
					g.t.Fatalf("round %d: %v carries row %v, its fields say %v", round, r, row, want)
				}
				g.rows[r.ID] = guardedRow{row: row, sum: row.Hash()}
			}
		}
	}
	g.check(round)
}

// check re-checks every recorded row, live or dropped.
func (g *rowGuard) check(round int) {
	g.t.Helper()
	for id, gr := range g.rows {
		if gr.row.Hash() != gr.sum {
			_, live := g.live[id]
			g.t.Fatalf("round %d: the row of request %d (live %v) changed to %v", round, id, live, gr.row)
		}
	}
}

// TestRowsStayIntact runs both declarative SS2PL protocols — the SQL view
// cache holds the rows in its base bags and shares column runs of them, the
// Datalog engine holds them in its EDB — over a contended workload with
// deadlock and starvation victims, on one shard and on four with slot moves
// forced every round, so rows migrate between shards and termination copies
// fan out. The row guard checks every row against its fields when it is
// built, and against its checksum every round after, after history GC has
// dropped it and at the end.
func TestRowsStayIntact(t *testing.T) {
	for _, c := range []struct {
		name  string
		proto func() protocol.Protocol
	}{
		{"ss2pl-sql", func() protocol.Protocol { return protocol.SS2PLSQL() }},
		{"ss2pl-datalog", func() protocol.Protocol { return protocol.SS2PLDatalog() }},
	} {
		for _, parts := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parts=%d", c.name, parts), func(t *testing.T) {
				gen, err := workload.NewGenerator(workload.Config{
					Clients: 12, TxnsPerClient: 10, ReadsPerTxn: 2, WritesPerTxn: 3,
					Objects: 24, Seed: int64(parts), HotKeys: 4, HotFrac: 0.7,
				})
				if err != nil {
					t.Fatal(err)
				}
				base := Config{Server: storage.NewServer(storage.Config{Rows: 24}), StarveAfter: 6}
				var e *Engine
				if parts == 1 {
					base.Protocol = c.proto()
					e, err = NewEngine(base)
				} else {
					e, err = NewPartitionedEngine(PartitionedConfig{
						Base: base, Partitions: parts, Factory: c.proto,
						Rebalance: RebalanceConfig{Slots: 32, Trigger: 1.3, Every: 3},
					})
				}
				if err != nil {
					t.Fatal(err)
				}
				var clients [][]request.Request
				taClient := map[int64]int{}
				for _, q := range gen.ClientQueues() {
					var rs []request.Request
					for _, tx := range q {
						taClient[tx.TA] = len(clients)
						rs = append(rs, tx.Requests...)
					}
					clients = append(clients, rs)
				}
				cursor := make([]int, len(clients))
				inflight := make([]bool, len(clients))
				dead := map[int64]bool{}
				rnd := rand.New(rand.NewSource(int64(parts)))
				guard := newRowGuard(t)
				victims := 0
				for round := 0; ; round++ {
					if round == 2000 {
						t.Fatal("the workload did not drain in 2000 rounds")
					}
					idle := true
					for i := range clients {
						if inflight[i] {
							idle = false
							continue
						}
						for cursor[i] < len(clients[i]) && dead[clients[i][cursor[i]].TA] {
							cursor[i]++
						}
						if cursor[i] < len(clients[i]) {
							e.Enqueue(clients[i][cursor[i]])
							cursor[i]++
							inflight[i], idle = true, false
						}
					}
					if idle && e.PendingLen() == 0 {
						break
					}
					if parts > 1 {
						e.ForceRebalance(store.SlotMove{Slot: rnd.Intn(32), To: rnd.Intn(parts)})
					}
					res, err := e.Round()
					if err != nil {
						t.Fatal(err)
					}
					for _, ta := range res.Victims {
						dead[ta] = true
						inflight[taClient[ta]] = false
					}
					victims += len(res.Victims)
					for _, ex := range res.Executed {
						inflight[taClient[ex.Request.TA]] = false
					}
					guard.observe(e, round)
				}
				guard.check(-1)
				if victims == 0 || len(guard.rows) == 0 {
					t.Fatalf("%d victims, %d rows: the workload did not exercise the guard", victims, len(guard.rows))
				}
				if parts > 1 && e.part.Version() == 0 {
					t.Fatal("no slot moves were applied")
				}
			})
		}
	}
}
