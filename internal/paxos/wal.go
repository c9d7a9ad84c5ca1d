package paxos

import "robuststore/internal/env"

// SyncMode selects how the engine flushes WAL records to stable storage.
// The tradeoff mirrors kevo-style WAL sync policies: Batch amortizes the
// dominant per-flush seek cost across concurrently pending records (group
// commit, §5.2 of the paper), Immediate gives the lowest per-record
// latency at low concurrency, and None trades acceptor durability for raw
// speed.
type SyncMode int

const (
	// SyncBatch (the default) coalesces records that arrive while a
	// flush is in flight, or within the same executor step, into one
	// Storage.AppendBatch call, so the whole group pays one sync
	// latency. Completion callbacks still run only after the records are
	// durable, preserving the WAL-before-ack invariant.
	SyncBatch SyncMode = iota

	// SyncImmediate issues one Storage.Append per record, the pre-group-
	// commit behaviour. The storage layer may still merge appends that
	// happen to overlap, but the engine adds no coalescing of its own.
	SyncImmediate

	// SyncNone acknowledges records before they are durable: completion
	// callbacks run immediately and the records are written out
	// asynchronously. A crash loses the tail of the log, so promises and
	// accepts can be forgotten — this mode is safe only when losing one
	// replica's recent WAL is acceptable (e.g. measurement runs) and
	// exists to bound the cost of durability in experiments.
	SyncNone
)

// String implements fmt.Stringer.
func (m SyncMode) String() string {
	switch m {
	case SyncBatch:
		return "batch"
	case SyncImmediate:
		return "immediate"
	case SyncNone:
		return "none"
	default:
		return "unknown"
	}
}

// walWriter sits between the engine and env.Storage and implements the
// SyncMode policy. All methods run on the node's executor. Batches retain
// submission order and AppendBatch completes groups in order, so record
// ordering on disk is identical to SyncImmediate — only the flush
// boundaries move.
type walWriter struct {
	e    env.Env
	mode SyncMode

	buf      []env.Record
	dones    []func(error)
	inFlight bool // an AppendBatch is awaiting durability
	armed    bool // a flushNow is posted
}

func newWALWriter(e env.Env, mode SyncMode) *walWriter {
	return &walWriter{e: e, mode: mode}
}

// append writes one record under the configured policy. done (nil
// allowed) runs on the executor — after durability for SyncBatch and
// SyncImmediate, immediately for SyncNone.
func (w *walWriter) append(rec env.Record, done func(error)) {
	switch w.mode {
	case SyncImmediate:
		w.e.Storage().Append(rec, done)
	case SyncNone:
		if done != nil {
			w.e.Post(func() { done(nil) })
		}
		w.buffer(rec, nil)
	default: // SyncBatch
		w.buffer(rec, done)
	}
}

func (w *walWriter) buffer(rec env.Record, done func(error)) {
	w.buf = append(w.buf, rec)
	w.dones = append(w.dones, done)
	w.maybeFlush()
}

// maybeFlush schedules a flush of the buffered records unless one is
// already pending or in flight. While a flush is in flight further
// records pile into buf and go out as the next group — that queue-behind-
// the-flush window is where coalescing comes from. The flush runs at the
// next executor step (not inline) so records appended by the same event
// share the group.
func (w *walWriter) maybeFlush() {
	if w.inFlight || w.armed || len(w.buf) == 0 {
		return
	}
	w.armed = true
	w.e.Post(w.flushNow)
}

func (w *walWriter) flushNow() {
	w.armed = false
	if w.inFlight || len(w.buf) == 0 {
		return
	}
	recs, dones := w.buf, w.dones
	w.buf, w.dones = nil, nil
	w.inFlight = true
	w.e.Storage().AppendBatch(recs, func(err error) {
		w.inFlight = false
		for _, d := range dones {
			if d != nil {
				d(err)
			}
		}
		w.maybeFlush()
	})
}
