package workload

import (
	"math"
	"testing"

	"repro/internal/request"
)

func TestPaperConfigShape(t *testing.T) {
	g, err := NewGenerator(PaperConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	queues := g.ClientQueues()
	if len(queues) != 10 {
		t.Fatalf("clients: %d", len(queues))
	}
	for _, q := range queues {
		if len(q) != 1 {
			t.Fatalf("txns per client: %d", len(q))
		}
		tx := q[0]
		if err := tx.Validate(); err != nil {
			t.Fatal(err)
		}
		var reads, writes int
		for _, r := range tx.Requests {
			switch r.Op {
			case request.Read:
				reads++
			case request.Write:
				writes++
			}
			if !r.Op.IsTermination() && (r.Object < 0 || r.Object >= 100000) {
				t.Fatalf("object out of range: %v", r)
			}
		}
		if reads != 20 || writes != 20 {
			t.Fatalf("mix %d/%d, want 20/20", reads, writes)
		}
		if tx.Requests[len(tx.Requests)-1].Op != request.Commit {
			t.Fatal("missing commit")
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	mk := func() []request.Request {
		g, err := NewGenerator(Config{Clients: 3, ReadsPerTxn: 2, WritesPerTxn: 2, Objects: 100, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return Flatten(g.ClientQueues())
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFlattenInterleavesAndRenumbers(t *testing.T) {
	g, err := NewGenerator(Config{Clients: 2, ReadsPerTxn: 1, WritesPerTxn: 0, Objects: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	flat := Flatten(g.ClientQueues())
	// 2 clients x (1 read + commit) = 4 requests, round-robin: ta1, ta2, ta1, ta2.
	if len(flat) != 4 {
		t.Fatalf("flat len: %d", len(flat))
	}
	for i, r := range flat {
		if r.ID != int64(i+1) {
			t.Errorf("ID %d at pos %d", r.ID, i)
		}
	}
	if flat[0].TA == flat[1].TA {
		t.Error("not interleaved")
	}
}

func TestZipfSkewConcentrates(t *testing.T) {
	g, err := NewGenerator(Config{Clients: 1, TxnsPerClient: 50, ReadsPerTxn: 10, WritesPerTxn: 0, Objects: 1000, ZipfS: 2.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int64]int)
	total := 0
	for _, q := range g.ClientQueues() {
		for _, tx := range q {
			for _, r := range tx.Requests {
				if r.Op == request.Read {
					counts[r.Object]++
					total++
				}
			}
		}
	}
	if counts[0]*3 < total {
		t.Errorf("zipf s=2 should concentrate >1/3 of accesses on object 0: %d of %d", counts[0], total)
	}
}

func TestHotKeyWorkloadConcentratesAndStaysDeterministic(t *testing.T) {
	mk := func() (*Generator, error) {
		return NewGenerator(Config{
			Clients: 1, TxnsPerClient: 100, ReadsPerTxn: 10, WritesPerTxn: 0,
			Objects: 1000, HotKeys: 8, HotFrac: 0.8, HotSkew: 1.5, Seed: 11,
		})
	}
	g, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	hot, total := 0, 0
	for _, q := range g.ClientQueues() {
		for _, tx := range q {
			for _, r := range tx.Requests {
				if r.Op != request.Read {
					continue
				}
				if r.Object < 0 || r.Object >= 1000 {
					t.Fatalf("object out of range: %v", r)
				}
				if r.Object < 8 {
					hot++
				}
				total++
			}
		}
	}
	// 80% of draws target the 8 hot keys; allow generous sampling slack.
	if hot*10 < total*7 {
		t.Errorf("hot set drew %d of %d accesses, want ~80%%", hot, total)
	}
	if hot == total {
		t.Error("cold remainder never drawn")
	}
	g2, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	g3, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, c := Flatten(g2.ClientQueues()), Flatten(g3.ClientQueues())
	if len(b) != len(c) {
		t.Fatal("lengths differ")
	}
	for i := range b {
		if !b[i].Equal(c[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, b[i], c[i])
		}
	}
}

func TestClassesAssignedByWeight(t *testing.T) {
	g, err := NewGenerator(Config{
		Clients: 4, TxnsPerClient: 2, ReadsPerTxn: 1, WritesPerTxn: 0, Objects: 10, Seed: 1,
		Classes: []Class{{Name: "premium", Priority: 10, Weight: 1}, {Name: "free", Priority: 1, Weight: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var premium, free int
	for _, q := range g.ClientQueues() {
		for _, tx := range q {
			switch tx.Requests[0].Class {
			case "premium":
				premium++
			case "free":
				free++
			default:
				t.Fatalf("unclassified txn: %v", tx.Requests[0])
			}
		}
	}
	if premium != 2 || free != 6 {
		t.Errorf("premium=%d free=%d, want 2/6", premium, free)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Clients: 0, Objects: 10, ReadsPerTxn: 1},
		{Clients: 1, Objects: 0, ReadsPerTxn: 1},
		{Clients: 1, Objects: 10},
		{Clients: 1, Objects: 10, ReadsPerTxn: 1, ZipfS: 0.5},
		{Clients: 1, Objects: 10, ReadsPerTxn: 1, Classes: []Class{{Name: "x", Weight: 0}}},
		{Clients: 1, Objects: 10, ReadsPerTxn: 1, HotKeys: -1},
		{Clients: 1, Objects: 10, ReadsPerTxn: 1, HotKeys: 10, HotFrac: 0.5},
		{Clients: 1, Objects: 10, ReadsPerTxn: 1, HotKeys: 2},
		{Clients: 1, Objects: 10, ReadsPerTxn: 1, HotKeys: 2, HotFrac: 1.5},
		{Clients: 1, Objects: 10, ReadsPerTxn: 1, HotKeys: 2, HotFrac: 0.5, HotSkew: 0.5},
		{Clients: 1, Objects: 10, ReadsPerTxn: 1, HotKeys: 2, HotFrac: 0.5, ZipfS: 2},
		// NaN used to slip through "!= 0 && <= 1" (every NaN comparison is
		// false) and silently disable the skew; +Inf used to reach
		// rand.NewZipf, whose sampling loop never terminates — the generator
		// hung on the first draw. Both must now fail construction.
		{Clients: 1, Objects: 10, ReadsPerTxn: 1, ZipfS: math.NaN()},
		{Clients: 1, Objects: 10, ReadsPerTxn: 1, ZipfS: math.Inf(1)},
		{Clients: 1, Objects: 10, ReadsPerTxn: 1, HotKeys: 2, HotFrac: 0.5, HotSkew: math.NaN()},
		{Clients: 1, Objects: 10, ReadsPerTxn: 1, HotKeys: 2, HotFrac: 0.5, HotSkew: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestDegenerateZipfEdges pins the imax==0 edges of the Zipf samplers: a
// one-object table under ZipfS and a one-key hot set under HotSkew are valid
// degenerate configurations — every skewed draw must return the only
// available object, without panicking and without hanging.
func TestDegenerateZipfEdges(t *testing.T) {
	// Objects == 1 with skew: rand.NewZipf(rng, s, 1, 0) draws from {0}.
	g, err := NewGenerator(Config{Clients: 1, Objects: 1, ReadsPerTxn: 2, WritesPerTxn: 2, ZipfS: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tx := g.NextTransaction()
	for _, r := range tx.Requests {
		if r.Object != request.NoObject && r.Object != 0 {
			t.Fatalf("one-object zipf drew object %d", r.Object)
		}
	}

	// HotKeys == 1 with HotSkew: the hot-set sampler draws from {0}; cold
	// draws stay in [1, Objects).
	g, err = NewGenerator(Config{Clients: 1, Objects: 10, ReadsPerTxn: 4, WritesPerTxn: 4,
		HotKeys: 1, HotFrac: 0.5, HotSkew: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		tx := g.NextTransaction()
		for _, r := range tx.Requests {
			if r.Object == request.NoObject {
				continue
			}
			if r.Object < 0 || r.Object >= 10 {
				t.Fatalf("object %d outside [0, 10)", r.Object)
			}
		}
	}
}

func TestUniqueIDsAndTAs(t *testing.T) {
	g, err := NewGenerator(Config{Clients: 5, TxnsPerClient: 3, ReadsPerTxn: 2, WritesPerTxn: 2, Objects: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	queues := g.ClientQueues()
	tas := make(map[int64]bool)
	for _, q := range queues {
		for _, tx := range q {
			if tas[tx.TA] {
				t.Fatalf("duplicate TA %d", tx.TA)
			}
			tas[tx.TA] = true
		}
	}
	ids := make(map[int64]bool)
	for _, r := range Flatten(queues) {
		if ids[r.ID] {
			t.Fatalf("duplicate ID %d", r.ID)
		}
		ids[r.ID] = true
	}
}
