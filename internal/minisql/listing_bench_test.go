package minisql_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/minisql"
	"repro/internal/relation"
	"repro/internal/request"
	"repro/internal/rules"
)

// listingOneFirstDelta compiles Listing 1 against the request schema and
// returns its plan with the first delta of a view cache over the 300-client
// midpoint instance: both tables' rows inserted.
func listingOneFirstDelta(tb testing.TB) (*minisql.Plan, map[string]minisql.Delta) {
	tb.Helper()
	pending, history := experiments.BuildMidpointInstance(300, 100000, 20, 42)
	q, err := minisql.Parse(rules.ListingOneSQL)
	if err != nil {
		tb.Fatal(err)
	}
	s := request.Schema()
	plan, err := minisql.CompilePlan(q, map[string]*relation.Schema{"requests": s, "history": s})
	if err != nil {
		tb.Fatal(err)
	}
	return plan, map[string]minisql.Delta{
		"requests": {Ins: request.AppendTuples(nil, pending, 5)},
		"history":  {Ins: request.AppendTuples(nil, history, 5)},
	}
}

// TestListingOneViewCacheBuildIsSized: building Listing 1's view cache on the
// 300-client midpoint instance — every view empty, the instance its first
// delta — reserves what that delta fills: each bag it reaches empty, and
// each base table's signed delta. Sized, the build allocates about 660
// times; without the bags' tuple, count and hash slices reserved, about
// 920; with bags and deltas that grow as they fill, about 1,360.
func TestListingOneViewCacheBuildIsSized(t *testing.T) {
	plan, first := listingOneFirstDelta(t)
	build := func() {
		if _, err := minisql.NewIVM(plan, first); err != nil {
			t.Fatal(err)
		}
	}
	build() // the request rows' symbols are interned once
	if allocs := testing.AllocsPerRun(3, build); allocs > 800 {
		t.Errorf("building Listing 1's view cache allocated %.0f times, want at most 800 (are the first delta's bags reserved?)", allocs)
	}
}

// BenchmarkListingOneViewCacheBuild times the build of Listing 1's view
// cache on the 300-client midpoint instance (TestListingOneViewCacheBuildIsSized):
// the cold part of SQLProtocol.Qualify and of a sql-ivm-build round.
func BenchmarkListingOneViewCacheBuild(b *testing.B) {
	plan, first := listingOneFirstDelta(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := minisql.NewIVM(plan, first); err != nil {
			b.Fatal(err)
		}
	}
}

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
