package fleet

import "repro/internal/store"

// storeWriter moves result-store file I/O off the simulation hot path:
// workers encode each freshly computed cell themselves (about a
// microsecond) and enqueue the digest and payload bytes, and a single
// writer goroutine performs the Puts. The queue is bounded — a full queue
// blocks the enqueueing worker, so store throughput backpressures the
// fleet instead of buffering unbounded payloads — and close() drains it
// completely before returning, including on cancellation: every payload
// accepted into the queue is persisted before Run returns.
//
// The writer never sees an aggregator, so the collector recycles every
// aggregator it merges, store-backed run or not.
type storeWriter struct {
	ch   chan storePut
	done chan struct{}
}

// storePut is one encoded entry waiting for the writer.
type storePut struct {
	key     store.Digest
	payload []byte
}

// startWriter spawns the writer goroutine for one run. queue is the
// bounded depth; < 0 panics (callers size it off the worker count).
// Store write failures are deliberately non-fatal: the run still has the
// result, the next run just recomputes.
func startWriter(st *store.Store, queue int) *storeWriter {
	w := &storeWriter{
		ch:   make(chan storePut, queue),
		done: make(chan struct{}),
	}
	go func() {
		defer close(w.done)
		for p := range w.ch {
			_ = st.Put(p.key, p.payload)
		}
	}()
	return w
}

// enqueue hands one encoded entry to the writer, blocking when the queue
// is full (backpressure, never loss).
func (w *storeWriter) enqueue(key store.Digest, payload []byte) {
	w.ch <- storePut{key, payload}
}

// close stops accepting entries and blocks until every queued write has
// been performed — the clean-drain guarantee Run relies on, cancelled or
// not.
func (w *storeWriter) close() {
	if w == nil {
		return
	}
	close(w.ch)
	<-w.done
}
