package paxos

import "robuststore/internal/env"

// walWriter sits between the engine and env.Storage and is the engine's
// only WAL flush path: group commit (§5.2 of the paper). Records that
// arrive while a flush is in flight, or within the same executor step, go
// out as one Storage.AppendBatch call, so the whole group pays one sync
// latency. Completion callbacks run only after their records are durable,
// preserving the WAL-before-ack invariant. All methods run on the node's
// executor. Batches retain submission order and AppendBatch completes
// groups in order, so records reach the disk in append order — only the
// flush boundaries move.
type walWriter struct {
	e env.Env

	buf      []env.Record
	dones    []func(error)
	inFlight bool // an AppendBatch is awaiting durability
	armed    bool // a flushNow is posted
}

// append queues one record for the next group. done (nil allowed) runs on
// the executor once the record is durable.
func (w *walWriter) append(rec env.Record, done func(error)) {
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
