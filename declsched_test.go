package repro

import (
	"strings"
	"testing"

	"repro/internal/protocol"
)

func runAll(t *testing.T, s *Scheduler, queues [][]Transaction) {
	t.Helper()
	s.Start()
	defer s.Stop()
	res, err := RunTransactions(s, queues)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommittedTxns == 0 {
		t.Fatal("nothing committed")
	}
}

func smallWorkload(t *testing.T) [][]Transaction {
	t.Helper()
	queues, err := GenerateWorkload(WorkloadConfig{
		Clients: 4, TxnsPerClient: 2, ReadsPerTxn: 2, WritesPerTxn: 2,
		Objects: 64, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return queues
}

func TestFacadeAllProtocols(t *testing.T) {
	protos := []Protocol{SS2PLDatalog(), SS2PLSQL(), TwoPLDatalog(), RelaxedReads(), &protocol.FCFS{}}
	for _, p := range protos {
		s, err := New(Options{Protocol: p, TableRows: 64, KeepLog: true})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		runAll(t, s, smallWorkload(t))
		if s.Stats().Executed == 0 {
			t.Errorf("%s: no executions recorded", p.Name())
		}
	}
}

// TestFacadePassThrough: the paper's non-scheduling baseline is the FCFS
// protocol.
func TestFacadePassThrough(t *testing.T) {
	s, err := New(Options{Protocol: FCFS(), TableRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, s, smallWorkload(t))
}

func TestFacadeCustomDatalogProtocol(t *testing.T) {
	// A custom protocol: writes on even objects are deferred while any
	// other transaction has pending work on the same object.
	src := `
		blocked(TA, I) :- request(_, TA, I, "w", OBJ), request(_, TA2, _, _, OBJ), TA2 != TA.
		qualified(ID, TA, I, OP, OBJ) :- request(ID, TA, I, OP, OBJ), not blocked(TA, I).
	`
	p, err := NewDatalogProtocol("custom", src, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Protocol: p, TableRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, s, smallWorkload(t))
}

func TestFacadeCustomSQLProtocol(t *testing.T) {
	p, err := NewSQLProtocol("everything", "SELECT * FROM requests ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Protocol: p, TableRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, s, smallWorkload(t))
}

func TestFacadeBadProtocolSource(t *testing.T) {
	if _, err := NewDatalogProtocol("bad", "qualified(X :-", false); err == nil {
		t.Error("bad datalog accepted")
	}
	if _, err := NewSQLProtocol("bad", "SELEC nope"); err == nil {
		t.Error("bad sql accepted")
	}
}

func TestFacadeAdaptive(t *testing.T) {
	p := NewAdaptiveProtocol(SS2PLDatalog(), RelaxedReads(), 8)
	s, err := New(Options{Protocol: p, TableRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, s, smallWorkload(t))
}

func TestFacadeTransactionBuilder(t *testing.T) {
	tx := NewTransaction(9).Read(1).Write(2).Commit()
	if tx.TA != 9 || len(tx.Requests) != 3 {
		t.Fatalf("builder: %+v", tx)
	}
	if err := tx.Validate(); err != nil {
		t.Fatal(err)
	}
	if tx.Requests[0].Op != Read || tx.Requests[1].Op != Write || tx.Requests[2].Op != Commit {
		t.Errorf("ops: %v", tx.Requests)
	}
}

func TestFacadeStatsString(t *testing.T) {
	s, err := New(Options{Protocol: SS2PLDatalog(), TableRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, s, smallWorkload(t))
	if !strings.Contains(s.Stats().String(), "rounds=") {
		t.Errorf("stats string: %q", s.Stats().String())
	}
}
