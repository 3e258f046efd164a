package scheduler

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/storage"
)

// TestQualifiedRowsCarryPendingFields pins where a qualified request's fields
// come from: a declarative protocol returns the columns of its relation, and
// the scheduler restores the rest from the pending copy it removes — Class
// always, Priority too through a five-column relation — and the row it
// carries agrees with those fields (its arrival column is the ID). The
// executed results, the history rows and the round's qualified list (RTE's
// source) must all carry the pending copy's fields. The SQL view cache is
// built in the first round; the later rounds run on the maintained views,
// where a blocked transaction's next write arrives with a new class and
// priority and must come back with them.
func TestQualifiedRowsCarryPendingFields(t *testing.T) {
	for _, c := range []struct {
		name  string
		proto func() protocol.Protocol
	}{
		{"ss2pl-sql", func() protocol.Protocol { return protocol.SS2PLSQL() }},
		{"ss2pl-datalog", func() protocol.Protocol { return protocol.SS2PLDatalog() }},
		{"sla-datalog", func() protocol.Protocol { return protocol.SLAPriorityDatalog() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := NewEngine(Config{Protocol: c.proto(), Server: storage.NewServer(storage.Config{Rows: 16}), KeepLog: true})
			if err != nil {
				t.Fatal(err)
			}
			// want is what the scheduler was given per (TA, IntraTA, Object).
			type content struct {
				key    request.Key
				object int64
			}
			want := map[content]request.Request{}
			submit := func(r request.Request) {
				want[content{r.Key(), r.Object}] = r
				e.Enqueue(r)
			}
			check := func(round int, what string, r request.Request) {
				t.Helper()
				w, ok := want[content{r.Key(), r.Object}]
				if !ok {
					t.Fatalf("round %d: %s %v was never submitted (stale content)", round, what, r)
				}
				row := r.Row()
				if r.Class != w.Class || r.Priority != w.Priority || row[5].AsInt() != w.Priority || row[6].AsInt() != r.ID {
					t.Errorf("round %d: %s %v carries class %q priority %d row %v, want %q %d arrival %d",
						round, what, r, r.Class, r.Priority, row, w.Class, w.Priority, r.ID)
				}
			}
			executed := 0
			// sql names the SQL protocol's strategy for a round; the Datalog
			// protocols' rounds are not checked.
			sql := func(strategy string) string {
				if c.name == "ss2pl-sql" {
					return strategy
				}
				return ""
			}
			run := func(round int, wantStrategy string) {
				t.Helper()
				res, err := e.Round()
				if err != nil {
					t.Fatal(err)
				}
				if wantStrategy != "" && res.Stats.Strategy != wantStrategy {
					t.Fatalf("round %d ran %q, want %q", round, res.Stats.Strategy, wantStrategy)
				}
				for _, ex := range res.Executed {
					check(round, "executed", ex.Request)
				}
				executed += len(res.Executed)
				qualified := e.shards[0].lastQualified
				if rte := e.RTE(); rte.Len() != len(qualified) {
					t.Fatalf("round %d: RTE holds %d rows, qualified %d", round, rte.Len(), len(qualified))
				}
				for _, r := range qualified {
					check(round, "qualified", r)
				}
				for _, r := range e.History().Live() {
					check(round, "history row", r)
				}
			}
			// Round 1 builds the SQL view cache: ta1's write wins object 3
			// under both SS2PL (lower TA) and SLA (higher priority); ta2's
			// stays pending.
			submit(request.Request{TA: 1, IntraTA: 0, Op: request.Write, Object: 3, Class: "gold", Priority: 4})
			submit(request.Request{TA: 2, IntraTA: 0, Op: request.Write, Object: 3, Class: "free", Priority: 1})
			run(1, sql("sql-ivm-build"))
			if e.PendingLen() != 1 {
				t.Fatalf("round 1 left %d pending, want ta2's write", e.PendingLen())
			}
			// Round 2 runs on the maintained views: ta2 adds a write on a free
			// object under a fresh key, with a new class and priority.
			submit(request.Request{TA: 2, IntraTA: 1, Op: request.Write, Object: 5, Class: "premium", Priority: 9})
			submit(request.Request{TA: 1, IntraTA: 1, Op: request.Commit, Object: request.NoObject, Class: "gold", Priority: 4})
			run(2, sql("sql-ivm"))
			// Round 3 too.
			submit(request.Request{TA: 2, IntraTA: 2, Op: request.Commit, Object: request.NoObject, Class: "premium", Priority: 9})
			run(3, sql("sql-ivm"))
			if executed != 5 || e.PendingLen() != 0 {
				t.Fatalf("executed %d of 5, %d left pending", executed, e.PendingLen())
			}
			for _, r := range e.History().Log() {
				check(3, "logged history row", r)
			}
		})
	}
}
