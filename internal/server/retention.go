package server

import (
	"time"
)

// Run-history retention defaults. A resident daemon that never forgets a
// finished run leaks every event log and rendered report it ever produced
// — the unbounded-retention drift the soak harness (internal/soak)
// asserts against. Terminal runs are therefore kept in a bounded history:
// at most HistoryLimit of them, none older than HistoryTTL, evicted
// oldest-first. Queued and running runs are never evicted.
const (
	// DefaultHistoryLimit caps retained terminal runs when
	// Config.HistoryLimit is zero.
	DefaultHistoryLimit = 512
	// DefaultHistoryTTL bounds a terminal run's retention age when
	// Config.HistoryTTL is zero.
	DefaultHistoryTTL = time.Hour
)

// historyLimit resolves the configured cap: 0 = default, negative =
// unlimited (-1).
func (s *Server) historyLimit() int {
	switch {
	case s.cfg.HistoryLimit > 0:
		return s.cfg.HistoryLimit
	case s.cfg.HistoryLimit < 0:
		return -1
	}
	return DefaultHistoryLimit
}

// historyTTL resolves the configured age bound: 0 = default, negative =
// no age-based eviction (-1).
func (s *Server) historyTTL() time.Duration {
	switch {
	case s.cfg.HistoryTTL > 0:
		return s.cfg.HistoryTTL
	case s.cfg.HistoryTTL < 0:
		return -1
	}
	return DefaultHistoryTTL
}

// clock returns the retention clock (the test hook, else wall time).
func (s *Server) clock() time.Time {
	if s.testNow != nil {
		return s.testNow()
	}
	return time.Now()
}

// terminateLocked moves a run to its terminal state under s.mu: it stamps
// the eviction clock, publishes the done event, appends the run to the
// bounded history, and sweeps — all before s.mu is released, so a client
// that has seen "done" always finds the run in the history (or evicted by
// a later sweep), stamped no later than any clock reading it could have
// observed since. Every terminal transition routes through here, so the
// history is exactly the terminal runs in finalize order — which makes
// doneAt monotone along it and prefix eviction correct.
func (s *Server) terminateLocked(r *run, state, runErr string, rep reportExports, storeDir string) {
	now := s.clock()
	r.finalize(state, runErr, rep, storeDir, now)
	s.history = append(s.history, r)
	s.evictLocked(now)
}

// evictLocked drops terminal runs beyond the retention bounds: first the
// count excess (oldest first), then every run whose terminal age exceeds
// the TTL (strictly — a run exactly TTL old is still served). An evicted
// run disappears from the run table and the admission order, so every
// route answers the typed not_found for it: a client reattaching to an
// evicted run learns it must resubmit, it does not hang on a stream that
// can never progress. Streamers already attached before the sweep keep
// their own reference to the run and finish normally (terminal streams
// end immediately); the history drops its pointers so the event log and
// reports become collectable once those handlers return.
//
// Called under s.mu on every admission, terminal transition, and
// run-table read, so TTL eviction needs no background goroutine — the
// same no-scheduler-to-leak stance the dispatcher takes.
func (s *Server) evictLocked(now time.Time) {
	drop := 0
	if limit := s.historyLimit(); limit >= 0 && len(s.history) > limit {
		drop = len(s.history) - limit
	}
	if ttl := s.historyTTL(); ttl >= 0 {
		for drop < len(s.history) {
			r := s.history[drop]
			r.mu.Lock()
			age := now.Sub(r.doneAt)
			r.mu.Unlock()
			if age <= ttl {
				break
			}
			drop++
		}
	}
	if drop == 0 {
		return
	}
	dropped := make(map[string]bool, drop)
	for _, r := range s.history[:drop] {
		delete(s.runs, r.id)
		dropped[r.id] = true
	}
	// Shift in place and nil the tail so the backing array does not pin
	// evicted runs (their logs and reports are what retention frees).
	rest := copy(s.history, s.history[drop:])
	for i := rest; i < len(s.history); i++ {
		s.history[i] = nil
	}
	s.history = s.history[:rest]
	keep := s.order[:0]
	for _, id := range s.order {
		if !dropped[id] {
			keep = append(keep, id)
		}
	}
	s.order = keep
	s.evicted += uint64(drop)
}
