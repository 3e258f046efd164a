package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/netproto"
	"repro/internal/protocol"
	"repro/internal/request"
	"repro/internal/scheduler"
	"repro/internal/storage"
	"repro/internal/workload"
)

// workloadSpec is one named closed-loop workload: a traffic mix and the
// stack it is sent through. Every server-side setting not listed here is
// cmd/schedserver's default, so the numbers describe what an operator runs.
// Why each workload exists is in README.md (one line each in BENCHMARK.json).
type workloadSpec struct {
	name string

	wire    bool // loopback netproto (2 multiplexed connections) instead of Middleware.Submit
	durable bool // journal on, SyncEvery 1, temp dir
	sql     bool // SS2PL-SQL (Listing 1) instead of SS2PL-Datalog
	// timerBound: throughput and latency are set by the trigger's millisecond,
	// not by the processor, so they are not normalised by the box's speed.
	timerBound bool

	clients       int
	reads, writes int
	rows          int64
	hotKeys       int64
	hotFrac       float64
	partitions    int // > 1 selects the PartitionedEngine with the rebalancer on
}

var workloads = []workloadSpec{
	{
		name: "wire_light", wire: true, timerBound: true,
		clients: 8, reads: 1, writes: 2, rows: 100000,
	},
	{
		name: "wire_sat_durable", wire: true, durable: true,
		clients: 256, reads: 1, writes: 2, rows: 100000,
	},
	{
		name:    "bulk_datalog",
		clients: 3000, reads: 1, writes: 1, rows: 1 << 20,
	},
	{
		name: "paper_mix_sql", sql: true,
		clients: 300, reads: 20, writes: 20, rows: 100000,
	},
	{
		name:    "part_hot",
		clients: 1000, reads: 2, writes: 1, rows: 1 << 20, hotKeys: 512, hotFrac: 0.2, partitions: 4,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// wireConns is the number of MuxClient connections the wire workloads share
// (= nproc on the reference box).
const wireConns = 2

// sessions derives every logical client's transaction stream from the seed.
// This is input generation, done before any set-up is timed.
func (w workloadSpec) sessions(seed int64) ([]*workload.Session, error) {
	cfg := workload.Config{
		Clients:     w.clients,
		ReadsPerTxn: w.reads, WritesPerTxn: w.writes,
		Objects: w.rows,
		HotKeys: w.hotKeys, HotFrac: w.hotFrac,
		Seed: seed,
	}
	out := make([]*workload.Session, w.clients)
	for id := range out {
		s, err := workload.NewSession(cfg, id)
		if err != nil {
			return nil, err
		}
		out[id] = s
	}
	return out, nil
}

// outcome classifies one Submit reply.
type outcome int

const (
	ok outcome = iota
	aborted
	busy
	failed
)

// stack is one instance of the system under test, client connections
// included.
type stack struct {
	spec   workloadSpec
	srv    *storage.Server
	engine *scheduler.Engine            // nil when partitioned
	parted *scheduler.PartitionedEngine // nil on the single loop
	mw     *scheduler.Middleware
	lis    *netproto.Server
	muxes  []*netproto.MuxClient
	dir    string // durable directory ("" when volatile)

	stopped bool
}

// newProtocol builds the workload's undecorated protocol instance.
func (w workloadSpec) newProtocol() protocol.Protocol {
	if w.sql {
		return protocol.SS2PLSQL()
	}
	return protocol.SS2PLDatalog()
}

// buildStack constructs and starts the system under test. tr is nil on
// untraced runs; on traced runs every protocol instance is wrapped in the
// tracing decorator and the execution log is kept for the serializability
// audit. tmp is the directory durable state may be created under.
func buildStack(w workloadSpec, tr *tracer, tmp string) (*stack, error) {
	st := &stack{spec: w}
	scfg := storage.Config{Rows: int(w.rows)}
	if w.durable {
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmp, w.name+"-")
		if err != nil {
			return nil, err
		}
		st.dir = dir
		scfg.Durable, scfg.Dir, scfg.SyncEvery = true, dir, 1
	}
	srv, err := storage.Open(scfg)
	if err != nil {
		st.close()
		return nil, err
	}
	st.srv = srv

	shard := 0
	mkProto := func() protocol.Protocol {
		p := w.newProtocol()
		if tr != nil {
			p = tr.wrap(p, shard)
		}
		shard++
		return p
	}
	base := scheduler.Config{
		Server:    srv,
		MaxQueued: 4096,
		KeepLog:   tr != nil,
	}
	if w.wire {
		base.ResubmitWindow = 65536
	}
	trig := scheduler.HybridTrigger{Level: 16, Every: time.Millisecond}
	if w.partitions > 1 {
		pe, err := scheduler.NewPartitionedEngine(scheduler.PartitionedConfig{
			Base:       base,
			Partitions: w.partitions,
			Factory:    mkProto,
			Rebalance:  scheduler.RebalanceConfig{Trigger: 1.5, Every: 16},
		})
		if err != nil {
			st.close()
			return nil, err
		}
		st.parted = pe
		st.mw = scheduler.NewPartitionedMiddleware(pe, trig, metrics.NewCollector())
	} else {
		base.Protocol = mkProto()
		e, err := scheduler.NewEngine(base)
		if err != nil {
			st.close()
			return nil, err
		}
		st.engine = e
		st.mw = scheduler.NewMiddleware(e, trig, metrics.NewCollector())
	}
	st.mw.Start()
	if w.wire {
		lis, err := netproto.Listen("127.0.0.1:0", st.mw)
		if err != nil {
			st.close()
			return nil, err
		}
		st.lis = lis
		for i := 0; i < wireConns; i++ {
			c, err := netproto.DialMux(lis.Addr(), netproto.MuxOptions{})
			if err != nil {
				st.close()
				return nil, err
			}
			st.muxes = append(st.muxes, c)
		}
	}
	return st, nil
}

// submit sends one request the way the workload's clients do and classifies
// the reply.
func (st *stack) submit(client int, r request.Request) (outcome, error) {
	if st.spec.wire {
		_, err := st.muxes[client%len(st.muxes)].Submit(r)
		switch {
		case err == nil:
			return ok, nil
		case errors.Is(err, netproto.ErrAborted):
			return aborted, nil
		case errors.Is(err, netproto.ErrBusy):
			return busy, err
		}
		return failed, err
	}
	res := st.mw.Submit(r)
	switch {
	case res.Err == nil:
		return ok, nil
	case errors.Is(res.Err, scheduler.ErrTxnAborted):
		return aborted, nil
	case errors.Is(res.Err, scheduler.ErrBusy):
		return busy, res.Err
	}
	return failed, res.Err
}

// stop shuts the scheduler side down — connections, listener, round loop —
// and leaves the storage server open for the audit. In-flight requests fail;
// callers that want a clean state wait for their clients first.
func (st *stack) stop() {
	if st.stopped {
		return
	}
	st.stopped = true
	for _, c := range st.muxes {
		c.Close()
	}
	if st.lis != nil {
		st.lis.Close()
	}
	if st.mw != nil {
		st.mw.Stop()
	}
}

// close stops the stack, closes the storage server (final journal sync) and
// removes the durable directory.
func (st *stack) close() error {
	st.stop()
	var err error
	if st.srv != nil {
		err = st.srv.Close()
		st.srv = nil
	}
	if st.dir != "" {
		if rerr := os.RemoveAll(st.dir); err == nil {
			err = rerr
		}
		st.dir = ""
	}
	return err
}

// executedLog returns the kept execution log (traced runs only): the single
// engine's, or the conflict-preserving merge of the shard logs.
func (st *stack) executedLog() []request.Request {
	if st.parted != nil {
		return st.parted.MergedLog()
	}
	return st.engine.History().Log()
}

func (w workloadSpec) String() string {
	path := "embedded"
	if w.wire {
		path = fmt.Sprintf("wire(%d conns)", wireConns)
	}
	return fmt.Sprintf("%s: %s, %d clients, %dr+%dw over %d rows", w.name, path, w.clients, w.reads, w.writes, w.rows)
}
