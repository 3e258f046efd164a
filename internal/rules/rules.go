// Package rules holds the declarative scheduling protocol definitions: the
// paper's Listing 1 (SS2PL in SQL) and the equivalent and extended protocols
// in the Datalog scheduler language. Keeping the rule texts in one place
// makes the paper's productivity claim inspectable — these few lines are the
// entire protocol definitions, versus the imperative implementations in
// internal/protocol.
//
// The texts are the specification, written for the reader: helper
// predicates such as `finished`, `wlock` and `rlock` name the concepts the
// protocol is stated in. The engines decide what to store. The Datalog
// engine unfolds every helper that can stand in for its occurrences into
// the rules that read it, so on SS2PL it stores only `blocked` and
// `qualified`, and a pending request probes the history directly; the
// helpers stay queryable (internal/datalog evaluates them on demand).
package rules

// ListingOneSQL is the paper's Listing 1, verbatim up to whitespace and
// identifier casing: the strong strict 2PL protocol formulated as one SQL
// query over the pending `requests` table and the `history` table. Its
// result is exactly the set of pending requests that can be executed without
// violating SS2PL.
const ListingOneSQL = `
WITH RLockedObjects AS
  (SELECT a.object, a.ta, a.operation
   FROM history a
   WHERE NOT EXISTS
     (SELECT * FROM history b
      WHERE (a.ta = b.ta AND a.object = b.object AND b.operation = 'w')
         OR (a.ta = b.ta AND (b.operation = 'a' OR b.operation = 'c')))),
WLockedObjects AS
  (SELECT DISTINCT a.object, a.ta, a.operation
   FROM history a LEFT JOIN
     (SELECT ta FROM history
      WHERE operation = 'a' OR operation = 'c') AS finishedTAs
     ON a.ta = finishedTAs.ta
   WHERE a.operation = 'w' AND finishedTAs.ta IS NULL),
OperationsOnWLockedObjects AS
  (SELECT r.ta, r.intrata
   FROM requests r, WLockedObjects wlo
   WHERE r.object = wlo.object AND r.ta <> wlo.ta),
OperationsOnRLockedObjects AS
  (SELECT wOpsOnRLObj.ta, wOpsOnRLObj.intrata
   FROM requests wOpsOnRLObj, RLockedObjects rl
   WHERE wOpsOnRLObj.object = rl.object
     AND wOpsOnRLObj.operation = 'w'
     AND wOpsOnRLObj.ta <> rl.ta),
OpsOnSameObjAsPriorSelectOps AS
  (SELECT r2.ta, r2.intrata
   FROM requests r2, requests r1
   WHERE r2.object = r1.object AND r2.ta > r1.ta
     AND ((r1.operation = 'w') OR (r2.operation = 'w'))),
QualifiedSS2PLOps AS
  ((SELECT ta, intrata FROM requests)
   EXCEPT (
     (SELECT * FROM OperationsOnWLockedObjects)
     UNION ALL
     (SELECT * FROM OpsOnSameObjAsPriorSelectOps)
     UNION ALL
     (SELECT * FROM OperationsOnRLockedObjects)))
SELECT r2.*
FROM requests r2, QualifiedSS2PLOps ss2PL
WHERE r2.ta = ss2PL.ta AND r2.intrata = ss2PL.intrata
ORDER BY id
`

// SS2PLDatalog is the same protocol in the Datalog scheduler language (the
// "more succinct" specialized language the paper's future-work section asks
// for). EDB: request(id, ta, intrata, op, obj), history(id, ta, intrata, op,
// obj). Answer predicate: qualified(id, ta, intrata, op, obj).
const SS2PLDatalog = `
% A transaction is finished once it committed or aborted.
finished(TA) :- history(_, TA, _, "c", _).
finished(TA) :- history(_, TA, _, "a", _).

% Write locks: writes by live transactions.
wlock(OBJ, TA) :- history(_, TA, _, "w", OBJ), not finished(TA).

% Read locks: reads by live transactions on objects they did not also write
% (a write upgrades the lock).
wrote(TA, OBJ) :- history(_, TA, _, "w", OBJ).
rlock(OBJ, TA) :- history(_, TA, _, "r", OBJ), not finished(TA), not wrote(TA, OBJ).

% A pending request is blocked by a foreign write lock on its object,
blocked(TA, I) :- request(_, TA, I, _, OBJ), wlock(OBJ, TA2), TA2 != TA.
% by a foreign read lock if it is a write,
blocked(TA, I) :- request(_, TA, I, "w", OBJ), rlock(OBJ, TA2), TA2 != TA.
% or by a conflicting request of an earlier transaction in the same batch.
blocked(TA2, I2) :- request(_, TA2, I2, _, OBJ), request(_, TA1, _, "w", OBJ), TA2 > TA1.
blocked(TA2, I2) :- request(_, TA2, I2, "w", OBJ), request(_, TA1, _, _, OBJ), TA2 > TA1.

qualified(ID, TA, I, OP, OBJ) :- request(ID, TA, I, OP, OBJ), not blocked(TA, I).
`

// TwoPLDatalog is plain (non-strict) 2PL: read locks are released as soon as
// the owning transaction has issued its last operation on that object —
// here approximated batch-wise by releasing read locks of transactions that
// have already reached their commit request in the pending batch. It shows
// how protocol *variants* are small rule edits, one of the paper's core
// claims.
const TwoPLDatalog = `
finished(TA) :- history(_, TA, _, "c", _).
finished(TA) :- history(_, TA, _, "a", _).
committing(TA) :- request(_, TA, _, "c", _).

wlock(OBJ, TA) :- history(_, TA, _, "w", OBJ), not finished(TA).
wrote(TA, OBJ) :- history(_, TA, _, "w", OBJ).
% Read locks of transactions now committing are released early (2PL
% shrinking phase): their reads no longer block foreign writes.
rlock(OBJ, TA) :- history(_, TA, _, "r", OBJ), not finished(TA), not wrote(TA, OBJ),
                  not committing(TA).

blocked(TA, I) :- request(_, TA, I, _, OBJ), wlock(OBJ, TA2), TA2 != TA.
blocked(TA, I) :- request(_, TA, I, "w", OBJ), rlock(OBJ, TA2), TA2 != TA.
blocked(TA2, I2) :- request(_, TA2, I2, _, OBJ), request(_, TA1, _, "w", OBJ), TA2 > TA1.
blocked(TA2, I2) :- request(_, TA2, I2, "w", OBJ), request(_, TA1, _, _, OBJ), TA2 > TA1.

qualified(ID, TA, I, OP, OBJ) :- request(ID, TA, I, OP, OBJ), not blocked(TA, I).
`

// SLAPriorityDatalog is SS2PL with SLA-aware intra-batch conflict
// resolution: where Listing 1 favours the lower transaction number, this
// protocol favours the higher SLA priority (premium before free customers,
// the paper's Section 1 motivation), falling back to the transaction number
// within a class. EDB: request(id, ta, intrata, op, obj, prio, arrival) — the
// seven columns of each request's shared row, whose arrival is the ID — and
// history(id, ta, intrata, op, obj), the row's first five.
const SLAPriorityDatalog = `
finished(TA) :- history(_, TA, _, "c", _).
finished(TA) :- history(_, TA, _, "a", _).
wlock(OBJ, TA) :- history(_, TA, _, "w", OBJ), not finished(TA).
wrote(TA, OBJ) :- history(_, TA, _, "w", OBJ).
rlock(OBJ, TA) :- history(_, TA, _, "r", OBJ), not finished(TA), not wrote(TA, OBJ).

blocked(TA, I) :- request(_, TA, I, _, OBJ, _, _), wlock(OBJ, TA2), TA2 != TA.
blocked(TA, I) :- request(_, TA, I, "w", OBJ, _, _), rlock(OBJ, TA2), TA2 != TA.

% Intra-batch conflicts: the request of the LOWER-priority transaction loses;
% ties break towards the smaller transaction number, as in Listing 1.
beats(TA1, TA2) :- request(_, TA1, _, _, _, P1, _), request(_, TA2, _, _, _, P2, _), P1 > P2.
beats(TA1, TA2) :- request(_, TA1, _, _, _, P, _), request(_, TA2, _, _, _, P, _), TA1 < TA2.

blocked(TA2, I2) :- request(_, TA2, I2, _, OBJ, _, _), request(_, TA1, _, "w", OBJ, _, _),
                    TA1 != TA2, beats(TA1, TA2).
blocked(TA2, I2) :- request(_, TA2, I2, "w", OBJ, _, _), request(_, TA1, _, _, OBJ, _, _),
                    TA1 != TA2, beats(TA1, TA2).

qualified(ID, TA, I, OP, OBJ, PRIO, ARR) :- request(ID, TA, I, OP, OBJ, PRIO, ARR),
                                            not blocked(TA, I).
`

// RelaxedReadsDatalog is an application-specific consistency protocol of the
// kind the paper's Section 5 proposes: reads never take or respect locks
// (they may observe bounded-stale state), while writes still follow SS2PL
// against other writes. This is the "relaxed consistency is sufficient for
// hotel reservations and Internet shops" regime of Section 2.
const RelaxedReadsDatalog = `
finished(TA) :- history(_, TA, _, "c", _).
finished(TA) :- history(_, TA, _, "a", _).
wlock(OBJ, TA) :- history(_, TA, _, "w", OBJ), not finished(TA).

% Only writes can be blocked, and only by foreign write locks.
blocked(TA, I) :- request(_, TA, I, "w", OBJ), wlock(OBJ, TA2), TA2 != TA.
% Intra-batch: later writer on the same object waits.
blocked(TA2, I2) :- request(_, TA2, I2, "w", OBJ), request(_, TA1, _, "w", OBJ), TA2 > TA1.

qualified(ID, TA, I, OP, OBJ) :- request(ID, TA, I, OP, OBJ), not blocked(TA, I).
`

// FCFSDatalog qualifies every pending request (protocol.FCFS, the paper's
// non-scheduling baseline, expressed declaratively): ordering by
// arrival happens in the scheduler, which always orders qualified requests
// deterministically.
const FCFSDatalog = `
qualified(ID, TA, I, OP, OBJ) :- request(ID, TA, I, OP, OBJ).
`

// WoundWaitDatalog is SS2PL with wound-wait deadlock *prevention* instead of
// detection: when an older transaction (smaller TA) requests a lock held by
// a younger one, the younger holder is wounded (aborted) rather than making
// the older wait behind it; a younger requester simply waits. Deadlock
// cycles can then never form, so the scheduler's waits-for detector stays
// idle. The `wound` predicate is the protocol's abort decision — an example
// of a scheduling decision beyond qualification expressed declaratively.
const WoundWaitDatalog = `
finished(TA) :- history(_, TA, _, "c", _).
finished(TA) :- history(_, TA, _, "a", _).
wlock(OBJ, TA) :- history(_, TA, _, "w", OBJ), not finished(TA).
wrote(TA, OBJ) :- history(_, TA, _, "w", OBJ).
rlock(OBJ, TA) :- history(_, TA, _, "r", OBJ), not finished(TA), not wrote(TA, OBJ).

% An older requester wounds every younger holder of a conflicting lock.
wound(TA2) :- request(_, TA1, _, _, OBJ), wlock(OBJ, TA2), TA1 < TA2.
wound(TA2) :- request(_, TA1, _, "w", OBJ), rlock(OBJ, TA2), TA1 < TA2.

% Blocking is as in SS2PL, but only against holders that survive wounding.
blocked(TA, I) :- request(_, TA, I, _, OBJ), wlock(OBJ, TA2), TA2 != TA, not wound(TA2).
blocked(TA, I) :- request(_, TA, I, "w", OBJ), rlock(OBJ, TA2), TA2 != TA, not wound(TA2).
blocked(TA2, I2) :- request(_, TA2, I2, _, OBJ), request(_, TA1, _, "w", OBJ), TA2 > TA1.
blocked(TA2, I2) :- request(_, TA2, I2, "w", OBJ), request(_, TA1, _, _, OBJ), TA2 > TA1.

qualified(ID, TA, I, OP, OBJ) :- request(ID, TA, I, OP, OBJ), not blocked(TA, I),
                                 not wound(TA).
`

// ConsistencyRationingDatalog implements per-object consistency classes in
// the style of Consistency Rationing (Kraska et al., VLDB 2009), which the
// paper's related-work section holds up as the state of the art it wants to
// generalise declaratively. An auxiliary EDB relation objclass(OBJ, CLASS)
// labels each object: class "a" data (e.g. account balances) is scheduled
// under full SS2PL; everything else (class "c", e.g. product descriptions)
// gets relaxed treatment — reads never block and writes serialise only
// against other writes. Unlabelled objects default to class "c".
const ConsistencyRationingDatalog = `
finished(TA) :- history(_, TA, _, "c", _).
finished(TA) :- history(_, TA, _, "a", _).
wlock(OBJ, TA) :- history(_, TA, _, "w", OBJ), not finished(TA).
wrote(TA, OBJ) :- history(_, TA, _, "w", OBJ).
rlock(OBJ, TA) :- history(_, TA, _, "r", OBJ), not finished(TA), not wrote(TA, OBJ).

strict(OBJ) :- objclass(OBJ, "a").

% Class-A objects: full SS2PL.
blocked(TA, I) :- request(_, TA, I, _, OBJ), strict(OBJ), wlock(OBJ, TA2), TA2 != TA.
blocked(TA, I) :- request(_, TA, I, "w", OBJ), strict(OBJ), rlock(OBJ, TA2), TA2 != TA.
blocked(TA2, I2) :- request(_, TA2, I2, _, OBJ), strict(OBJ), request(_, TA1, _, "w", OBJ), TA2 > TA1.
blocked(TA2, I2) :- request(_, TA2, I2, "w", OBJ), strict(OBJ), request(_, TA1, _, _, OBJ), TA2 > TA1.

% Class-C objects: writes serialise against writes only; reads are free.
blocked(TA, I) :- request(_, TA, I, "w", OBJ), not strict(OBJ), wlock(OBJ, TA2), TA2 != TA.
blocked(TA2, I2) :- request(_, TA2, I2, "w", OBJ), not strict(OBJ), request(_, TA1, _, "w", OBJ), TA2 > TA1.

qualified(ID, TA, I, OP, OBJ) :- request(ID, TA, I, OP, OBJ), not blocked(TA, I).
`
