package scheduler

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/storage"
)

// TestConcurrentSubmitDuringSQLRounds hammers Middleware.Submit from many
// client goroutines while the SQL protocol's rounds run, so the race
// detector sees the middleware's concurrency surface: client workers feeding
// the admission queue, the scheduler loop firing rounds and the executor
// answering clients. Every transaction must either fully execute or be
// aborted as a deadlock victim — nothing may hang or be silently dropped.
func TestConcurrentSubmitDuringSQLRounds(t *testing.T) {
	engine, err := NewEngine(Config{
		Protocol: protocol.SS2PLSQL(),
		Server:   storage.NewServer(storage.Config{Rows: 64}),
	})
	if err != nil {
		t.Fatal(err)
	}
	mw := NewMiddleware(engine, FillTrigger{Level: 4}, metrics.NewCollector())
	mw.Start()
	defer mw.Stop()

	const clients = 8
	const txPerClient = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*txPerClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < txPerClient; i++ {
				ta := int64(1 + c*txPerClient + i)
				obj := int64((c*7 + i) % 64)
				tx := request.NewBuilder(ta, nil).Read(obj).Write((obj + 3) % 64).Commit()
				aborted := false
				for _, r := range tx.Requests {
					res := mw.Submit(r)
					if errors.Is(res.Err, ErrTxnAborted) {
						aborted = true
						break // victim: the client would restart; dropping is fine here
					}
					if res.Err != nil {
						errs <- fmt.Errorf("ta %d: %w", ta, res.Err)
						return
					}
				}
				_ = aborted
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
