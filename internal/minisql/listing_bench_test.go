package minisql_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/minisql"
	"repro/internal/request"
	"repro/internal/rules"
)

// BenchmarkSS2PLQuerySQLNestedLoop is the paper-baseline data point: one
// round of Listing 1 on the 300-client midpoint instance (the instance of
// the root package's BenchmarkSS2PLQuerySQL) evaluated by the test
// interpreter, which has no planner — the FROM items run as nested loops and
// every correlated NOT EXISTS rescans its table for each outer row. A round
// is what SQLProtocol.Qualify does around its plan: build both relations
// from the requests, evaluate, read the qualified requests back. One data
// point is enough — it keeps the planned executor's advantage a committed
// number, not an anecdote. A first run checks the answer against the
// executor's.
func BenchmarkSS2PLQuerySQLNestedLoop(b *testing.B) {
	pending, history := experiments.BuildMidpointInstance(300, 100000, 20, 42)
	q, err := minisql.Parse(rules.ListingOneSQL)
	if err != nil {
		b.Fatal(err)
	}
	tables := func() minisql.Catalog {
		return minisql.Catalog{"requests": request.ToRelation(pending), "history": request.ToRelation(history)}
	}
	planned, err := minisql.Run(q, tables())
	if err != nil {
		b.Fatal(err)
	}
	if got, err := minisql.Interpret(q, tables()); err != nil || !got.Equal(planned) {
		b.Fatalf("the interpreter's answer (error %v) differs from the executor's", err)
	}
	b.Run("clients=300", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := minisql.Interpret(q, tables())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := request.AppendFromTuples(nil, out.Rows()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
