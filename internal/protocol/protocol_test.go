package protocol

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/request"
)

// randInstance builds a random but well-formed pair of pending and history
// request sets: unique IDs, unique (TA, IntraTA) keys, a small object and
// transaction space so conflicts are frequent.
func randInstance(rng *rand.Rand) (pending, history []request.Request) {
	nextID := int64(1)
	ops := []request.Op{request.Read, request.Write, request.Commit, request.Abort}
	intra := make(map[int64]int64)
	gen := func(n int, allowTermination bool) []request.Request {
		var out []request.Request
		for i := 0; i < n; i++ {
			ta := 1 + rng.Int63n(6)
			op := ops[rng.Intn(len(ops))]
			if !allowTermination && op.IsTermination() {
				op = request.Read
			}
			obj := rng.Int63n(8)
			if op.IsTermination() {
				obj = request.NoObject
			}
			out = append(out, request.Request{
				ID: nextID, TA: ta, IntraTA: intra[ta], Op: op, Object: obj,
			})
			nextID++
			intra[ta]++
		}
		return out
	}
	history = gen(rng.Intn(25), true)
	pending = gen(rng.Intn(12), true)
	return pending, history
}

func keys(rs []request.Request) map[request.Key]bool { return KeySet(rs) }

func sameKeys(a, b []request.Request) bool {
	ka, kb := keys(a), keys(b)
	if len(ka) != len(kb) {
		return false
	}
	for k := range ka {
		if !kb[k] {
			return false
		}
	}
	return true
}

// TestSS2PLTriEquivalence is the central property of the reproduction: the
// SQL formulation (paper Listing 1), the Datalog formulation and the
// imperative baseline compute the same qualified set on random instances.
func TestSS2PLTriEquivalence(t *testing.T) {
	sql := SS2PLSQL()
	dl := SS2PLDatalog()
	imp := ImperativeSS2PL{}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		pending, history := randInstance(rng)
		qSQL, err := sql.Qualify(pending, history)
		if err != nil {
			t.Fatalf("trial %d sql: %v", trial, err)
		}
		qDL, err := dl.Qualify(pending, history)
		if err != nil {
			t.Fatalf("trial %d datalog: %v", trial, err)
		}
		qImp, err := imp.Qualify(pending, history)
		if err != nil {
			t.Fatalf("trial %d imperative: %v", trial, err)
		}
		if !sameKeys(qSQL, qImp) {
			t.Fatalf("trial %d: SQL %v != imperative %v\npending: %v\nhistory: %v",
				trial, qSQL, qImp, pending, history)
		}
		if !sameKeys(qDL, qImp) {
			t.Fatalf("trial %d: Datalog %v != imperative %v\npending: %v\nhistory: %v",
				trial, qDL, qImp, pending, history)
		}
		// Execution order must be deterministic and ID-sorted for both
		// declarative variants.
		for i := 1; i < len(qSQL); i++ {
			if qSQL[i-1].ID > qSQL[i].ID {
				t.Fatalf("trial %d: SQL output not ID-ordered: %v", trial, qSQL)
			}
		}
		for i := 1; i < len(qDL); i++ {
			if qDL[i-1].ID > qDL[i].ID {
				t.Fatalf("trial %d: Datalog output not ID-ordered: %v", trial, qDL)
			}
		}
	}
}

func TestRelaxedEquivalence(t *testing.T) {
	dl := RelaxedReadsDatalog()
	imp := ImperativeRelaxedReads{}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		pending, history := randInstance(rng)
		a, err := dl.Qualify(pending, history)
		if err != nil {
			t.Fatal(err)
		}
		b, err := imp.Qualify(pending, history)
		if err != nil {
			t.Fatal(err)
		}
		if !sameKeys(a, b) {
			t.Fatalf("trial %d: relaxed datalog %v != imperative %v\npending %v\nhistory %v",
				trial, a, b, pending, history)
		}
	}
}

// TestSS2PLQualifiedConflictFree: no strict qualified batch may contain
// internal conflicts or conflict with live history locks.
func TestSS2PLQualifiedConflictFree(t *testing.T) {
	dl := SS2PLDatalog()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		pending, history := randInstance(rng)
		q, err := dl.Qualify(pending, history)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckQualifiedConflictFree(q, history); err != nil {
			t.Fatalf("trial %d: %v\npending %v\nhistory %v", trial, err, pending, history)
		}
	}
}

func TestSS2PLBlocksForeignWriteLock(t *testing.T) {
	// ta1 wrote object 5 and is live; ta2's read of 5 must not qualify.
	history := []request.Request{{ID: 1, TA: 1, IntraTA: 0, Op: request.Write, Object: 5}}
	pending := []request.Request{
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Read, Object: 5},
		{ID: 3, TA: 3, IntraTA: 0, Op: request.Read, Object: 6},
	}
	for _, p := range []Protocol{SS2PLSQL(), SS2PLDatalog(), ImperativeSS2PL{}} {
		q, err := p.Qualify(pending, history)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		k := keys(q)
		if k[request.Key{TA: 2, IntraTA: 0}] {
			t.Errorf("%s: read of write-locked object qualified", p.Name())
		}
		if !k[request.Key{TA: 3, IntraTA: 0}] {
			t.Errorf("%s: unrelated read blocked", p.Name())
		}
	}
}

func TestSS2PLReleasesLocksOnCommit(t *testing.T) {
	history := []request.Request{
		{ID: 1, TA: 1, IntraTA: 0, Op: request.Write, Object: 5},
		{ID: 2, TA: 1, IntraTA: 1, Op: request.Commit, Object: request.NoObject},
	}
	pending := []request.Request{{ID: 3, TA: 2, IntraTA: 0, Op: request.Write, Object: 5}}
	for _, p := range []Protocol{SS2PLSQL(), SS2PLDatalog(), ImperativeSS2PL{}} {
		q, err := p.Qualify(pending, history)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(q) != 1 {
			t.Errorf("%s: committed transaction still holds lock", p.Name())
		}
	}
}

func TestSS2PLReadLockBlocksWriterOnly(t *testing.T) {
	history := []request.Request{{ID: 1, TA: 1, IntraTA: 0, Op: request.Read, Object: 5}}
	pending := []request.Request{
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Read, Object: 5},  // read/read ok
		{ID: 3, TA: 3, IntraTA: 0, Op: request.Write, Object: 5}, // blocked by rlock
	}
	for _, p := range []Protocol{SS2PLSQL(), SS2PLDatalog(), ImperativeSS2PL{}} {
		q, err := p.Qualify(pending, history)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		k := keys(q)
		if !k[request.Key{TA: 2, IntraTA: 0}] {
			t.Errorf("%s: concurrent read blocked by read lock", p.Name())
		}
		if k[request.Key{TA: 3, IntraTA: 0}] {
			t.Errorf("%s: write qualified despite foreign read lock", p.Name())
		}
	}
}

func TestSS2PLIntraBatchConflictFavoursLowerTA(t *testing.T) {
	pending := []request.Request{
		{ID: 1, TA: 5, IntraTA: 0, Op: request.Write, Object: 7},
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Write, Object: 7},
	}
	for _, p := range []Protocol{SS2PLSQL(), SS2PLDatalog(), ImperativeSS2PL{}} {
		q, err := p.Qualify(pending, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(q) != 1 || q[0].TA != 2 {
			t.Errorf("%s: want only ta2 qualified, got %v", p.Name(), q)
		}
	}
}

func TestWriteUpgradeOwnReadLock(t *testing.T) {
	// ta1 read object 5; its own write of 5 must qualify (no self-conflict).
	history := []request.Request{{ID: 1, TA: 1, IntraTA: 0, Op: request.Read, Object: 5}}
	pending := []request.Request{{ID: 2, TA: 1, IntraTA: 1, Op: request.Write, Object: 5}}
	for _, p := range []Protocol{SS2PLSQL(), SS2PLDatalog(), ImperativeSS2PL{}} {
		q, err := p.Qualify(pending, history)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(q) != 1 {
			t.Errorf("%s: own-lock upgrade blocked", p.Name())
		}
	}
}

func TestFCFSQualifiesEverythingInIDOrder(t *testing.T) {
	pending := []request.Request{
		{ID: 3, TA: 1, IntraTA: 0, Op: request.Write, Object: 1},
		{ID: 1, TA: 2, IntraTA: 0, Op: request.Write, Object: 1},
	}
	for _, p := range []Protocol{&FCFS{}, FCFSDatalog()} {
		q, err := p.Qualify(pending, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(q) != 2 || q[0].ID != 1 || q[1].ID != 3 {
			t.Errorf("%s: %v", p.Name(), q)
		}
	}
}

func TestSLAPriorityWinsConflict(t *testing.T) {
	pending := []request.Request{
		{ID: 1, TA: 1, IntraTA: 0, Op: request.Write, Object: 7, Priority: 1, Class: "free"},
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Write, Object: 7, Priority: 10, Class: "premium"},
	}
	p := SLAPriorityDatalog()
	q, err := p.Qualify(pending, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0].TA != 2 {
		t.Fatalf("premium should win the conflict: %v", q)
	}
	// With SS2PL (Listing 1) the lower TA — the free customer — would win.
	q2, err := SS2PLDatalog().Qualify(pending, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(q2) != 1 || q2[0].TA != 1 {
		t.Fatalf("ss2pl tie-break sanity: %v", q2)
	}
}

func TestSLAOrderingByPriority(t *testing.T) {
	pending := []request.Request{
		{ID: 1, TA: 1, IntraTA: 0, Op: request.Read, Object: 1, Priority: 1},
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Read, Object: 2, Priority: 10},
	}
	q, err := SLAPriorityDatalog().Qualify(pending, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 2 || q[0].Priority != 10 {
		t.Fatalf("priority ordering: %v", q)
	}
}

func TestTwoPLReleasesReadLocksOfCommittingTAs(t *testing.T) {
	history := []request.Request{{ID: 1, TA: 1, IntraTA: 0, Op: request.Read, Object: 5}}
	pending := []request.Request{
		{ID: 2, TA: 1, IntraTA: 1, Op: request.Commit, Object: request.NoObject},
		{ID: 3, TA: 2, IntraTA: 0, Op: request.Write, Object: 5},
	}
	// Strict 2PL blocks the foreign write until the commit is executed...
	qStrict, err := SS2PLDatalog().Qualify(pending, history)
	if err != nil {
		t.Fatal(err)
	}
	if keys(qStrict)[request.Key{TA: 2, IntraTA: 0}] {
		t.Fatal("ss2pl must block the write while the read lock is live")
	}
	// ...while 2PL releases the read lock as the owner starts committing.
	q2PL, err := TwoPLDatalog().Qualify(pending, history)
	if err != nil {
		t.Fatal(err)
	}
	if !keys(q2PL)[request.Key{TA: 2, IntraTA: 0}] {
		t.Fatal("2pl should release the read lock of a committing transaction")
	}
}

func TestRelaxedReadsNeverBlocked(t *testing.T) {
	history := []request.Request{{ID: 1, TA: 1, IntraTA: 0, Op: request.Write, Object: 5}}
	pending := []request.Request{
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Read, Object: 5},
		{ID: 3, TA: 3, IntraTA: 0, Op: request.Write, Object: 5},
	}
	q, err := RelaxedReadsDatalog().Qualify(pending, history)
	if err != nil {
		t.Fatal(err)
	}
	k := keys(q)
	if !k[request.Key{TA: 2, IntraTA: 0}] {
		t.Error("relaxed read blocked")
	}
	if k[request.Key{TA: 3, IntraTA: 0}] {
		t.Error("relaxed write not blocked by foreign write lock")
	}
}

func TestAdaptiveSwitches(t *testing.T) {
	a := NewAdaptive(SS2PLDatalog(), RelaxedReadsDatalog(), 3)
	small := []request.Request{{ID: 1, TA: 1, IntraTA: 0, Op: request.Read, Object: 1}}
	big := []request.Request{
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Read, Object: 1},
		{ID: 3, TA: 3, IntraTA: 0, Op: request.Read, Object: 2},
		{ID: 4, TA: 4, IntraTA: 0, Op: request.Read, Object: 3},
	}
	history := []request.Request{{ID: 9, TA: 9, IntraTA: 0, Op: request.Write, Object: 1}}
	qs, err := a.Qualify(small, history)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 0 {
		t.Errorf("small batch should use strict: %v", qs)
	}
	qb, err := a.Qualify(big, history)
	if err != nil {
		t.Fatal(err)
	}
	if len(qb) != 3 {
		t.Errorf("big batch should use relaxed: %v", qb)
	}
	if a.Switches != 1 {
		t.Errorf("switches = %d", a.Switches)
	}
}

func TestConflictGraphCycleDetection(t *testing.T) {
	// ta1 reads x then ta2 writes x; ta2 reads y then ta1 writes y; both
	// commit -> cycle.
	executed := []request.Request{
		{ID: 1, TA: 1, IntraTA: 0, Op: request.Read, Object: 1},
		{ID: 2, TA: 2, IntraTA: 0, Op: request.Read, Object: 2},
		{ID: 3, TA: 2, IntraTA: 1, Op: request.Write, Object: 1},
		{ID: 4, TA: 1, IntraTA: 1, Op: request.Write, Object: 2},
		{ID: 5, TA: 1, IntraTA: 2, Op: request.Commit, Object: request.NoObject},
		{ID: 6, TA: 2, IntraTA: 2, Op: request.Commit, Object: request.NoObject},
	}
	if err := CheckSerializable(executed); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := CheckTerminationOrder(executed); err != nil {
		t.Fatal(err)
	}
	// The same interleaving with ta2 aborted is fine.
	executed[5].Op = request.Abort
	if err := CheckSerializable(executed); err != nil {
		t.Fatalf("aborted transaction should not contribute edges: %v", err)
	}
	if err := CheckTerminationOrder(executed); err != nil {
		t.Fatal(err)
	}
}

// TestCheckTerminationOrder: a request of a transaction after its commit or
// abort is flagged, the first one in the log; interleavings across
// transactions pass.
func TestCheckTerminationOrder(t *testing.T) {
	r := func(id, ta int64, op request.Op) request.Request {
		obj := int64(7)
		if op.IsTermination() {
			obj = request.NoObject
		}
		return request.Request{ID: id, TA: ta, IntraTA: id, Op: op, Object: obj}
	}
	for _, c := range []struct {
		name    string
		log     []request.Request
		flagged int64 // ID of the request to name, 0 for none
	}{
		{"interleaved", []request.Request{
			r(1, 1, request.Write), r(2, 2, request.Read), r(3, 2, request.Write),
			r(4, 1, request.Commit), r(5, 2, request.Abort), r(6, 3, request.Write), r(7, 3, request.Commit),
		}, 0},
		{"write after commit", []request.Request{
			r(1, 1, request.Write), r(2, 2, request.Write), r(3, 1, request.Commit),
			r(4, 2, request.Commit), r(5, 1, request.Write), r(6, 2, request.Write),
		}, 5},
		{"write after abort", []request.Request{
			r(1, 1, request.Write), r(2, 1, request.Abort), r(3, 2, request.Read), r(4, 1, request.Write),
		}, 4},
		{"termination after abort", []request.Request{
			r(1, 1, request.Abort), r(2, 1, request.Commit),
		}, 2},
	} {
		err := CheckTerminationOrder(c.log)
		if c.flagged == 0 {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		if want := fmt.Sprint(c.log[c.flagged-1]); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, want)
		}
	}
}

func TestSerialScheduleIsSerializable(t *testing.T) {
	var executed []request.Request
	id := int64(1)
	for ta := int64(1); ta <= 3; ta++ {
		for i := int64(0); i < 3; i++ {
			executed = append(executed, request.Request{ID: id, TA: ta, IntraTA: i, Op: request.Write, Object: i})
			id++
		}
		executed = append(executed, request.Request{ID: id, TA: ta, IntraTA: 3, Op: request.Commit, Object: request.NoObject})
		id++
	}
	if err := CheckSerializable(executed); err != nil {
		t.Fatal(err)
	}
	if err := CheckTerminationOrder(executed); err != nil {
		t.Fatal(err)
	}
}

// TestSS2PLDrainProducesSerializableSchedule drives the protocol round by
// round over a whole workload and verifies the final schedule is
// conflict-serializable — the end-to-end correctness claim.
func TestSS2PLDrainProducesSerializableSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		// Build transactions: 6 TAs, 3 ops + commit each, over 4 objects.
		var queues [][]request.Request
		id := int64(1)
		for ta := int64(1); ta <= 6; ta++ {
			var tx []request.Request
			for i := int64(0); i < 3; i++ {
				op := request.Read
				if rng.Intn(2) == 0 {
					op = request.Write
				}
				tx = append(tx, request.Request{ID: id, TA: ta, IntraTA: i, Op: op, Object: rng.Int63n(4)})
				id++
			}
			tx = append(tx, request.Request{ID: id, TA: ta, IntraTA: 3, Op: request.Commit, Object: request.NoObject})
			id++
			queues = append(queues, tx)
		}
		p := SS2PLDatalog()
		var history, executed []request.Request
		next := make([]int, len(queues))
		for round := 0; round < 200; round++ {
			var pending []request.Request
			for c, q := range queues {
				if next[c] < len(q) {
					pending = append(pending, q[next[c]])
				}
			}
			if len(pending) == 0 {
				break
			}
			q, err := p.Qualify(pending, history)
			if err != nil {
				t.Fatal(err)
			}
			if len(q) == 0 {
				// A genuine SS2PL deadlock: abort victims, as the middleware
				// does.
				victims := new(Detector).Victims(pending, history)
				if len(victims) == 0 {
					t.Fatalf("trial %d round %d: stuck without deadlock: pending %v\nhistory %v",
						trial, round, pending, history)
				}
				for _, ta := range victims {
					ab := request.Request{ID: id, TA: ta, IntraTA: 999, Op: request.Abort, Object: request.NoObject}
					id++
					executed = append(executed, ab)
					history = append(history, ab)
					for c, queue := range queues {
						if len(queue) > 0 && queue[0].TA == ta {
							next[c] = len(queue) // client gives up
						}
					}
				}
				continue
			}
			for _, r := range q {
				executed = append(executed, r)
				history = append(history, r)
				for c, queue := range queues {
					if next[c] < len(queue) && queue[next[c]].Key() == r.Key() {
						next[c]++
					}
				}
			}
		}
		for c := range queues {
			if next[c] != len(queues[c]) {
				t.Fatalf("trial %d: transaction %d did not drain", trial, c)
			}
		}
		if err := CheckSerializable(executed); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckTerminationOrder(executed); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
