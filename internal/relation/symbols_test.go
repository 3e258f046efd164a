package relation_test

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/relation"
	"repro/internal/request"
	"repro/internal/scheduler"
	"repro/internal/storage"
)

// TestRoundsDoNotGrowSymbols: the symbol table grows with the strings of
// rule texts and loaded data, never with requests. Ten thousand rounds of
// fresh requests — their rows built by the stores, read by both declarative
// engines and parsed back from the qualified rows — leave it as it was once
// the protocols were compiled.
func TestRoundsDoNotGrowSymbols(t *testing.T) {
	const rounds = 10000
	engines := make([]*scheduler.Engine, 0, 2)
	for _, p := range []protocol.Protocol{protocol.SS2PLSQL(), protocol.SS2PLDatalog()} {
		e, err := scheduler.NewEngine(scheduler.Config{Protocol: p, Server: storage.NewServer(storage.Config{Rows: 64})})
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	before := relation.SymbolCount()
	for ta := int64(1); ta <= rounds; ta++ {
		b := request.NewBuilder(ta, nil).Read(ta % 64).Write((ta + 1) % 64)
		end := b.Commit
		if ta%3 == 0 {
			end = b.Abort
		}
		tx := end()
		for _, e := range engines {
			e.Enqueue(tx.Requests...)
			res, err := e.Round()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Executed) != len(tx.Requests) {
				t.Fatalf("transaction %d: %d of %d requests executed", ta, len(res.Executed), len(tx.Requests))
			}
		}
		for _, r := range tx.Requests {
			back, err := request.FromTuple(r.WithRow().Row())
			if err != nil || !back.Equal(r) {
				t.Fatalf("%v read back from its row as %v (%v)", r, back, err)
			}
		}
	}
	if after := relation.SymbolCount(); after != before {
		t.Fatalf("%d rounds interned %d new symbols", rounds, after-before)
	}
}
