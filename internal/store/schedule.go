package store

import "math"

// The tier's replacement policy. A Run knows, when an iteration starts,
// the order in which its pin cursor will visit segments: the frontier's
// walk, run-length compressed by segment. The store keeps that schedule
// and evicts by it — Belady's rule, with the one lookahead the runner
// has — and a prefetcher decodes the schedule's next segment on a second
// goroutine while the traversal computes on the current one.
//
// Victim rule. Among unpinned resident frames, evict
//  1. a frame the iteration does not pin again, highest segment index
//     first (the next iteration starts its walk from low indices);
//  2. otherwise the frame whose next pin comes last.
//
// Outside a Run every frame is "not pinned again", so plain Pin traffic
// evicts the highest resident segment index first.

// noUse is the next-use step of a frame the schedule does not touch
// again; it sorts after every real step.
const noUse = math.MaxInt

// plan is a Run's schedule for the current iteration and its link to
// the prefetcher. Guarded by Store.mu.
type plan struct {
	segs     []int32   // segment pinned at each step, in traversal order
	next     []int     // next[i]: the step that pins segs[i] again, noUse if none
	pos      int       // steps pinned so far
	jobs     chan fill // reserved loads for the prefetcher; at most one outstanding
	inflight bool      // a reserved load is with the prefetcher
}

// claim hands the tier's schedule to a new Run. It returns nil when
// another Run already holds it; that Run keeps steering eviction and
// prefetch, and the caller pins unscheduled (results never depend on it).
func (s *Store) claim() *plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.plan != nil {
		return nil
	}
	s.plan = &plan{jobs: make(chan fill, 1)}
	return s.plan
}

// unclaim drops p's schedule once its Run and prefetcher are done.
func (s *Store) unclaim(p *plan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setSchedule(p, nil)
	s.plan = nil
}

// schedule installs the iteration's segment order: every frame's next
// use becomes its first step in segs.
func (s *Store) schedule(p *plan, segs []int32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setSchedule(p, segs)
}

func (s *Store) setSchedule(p *plan, segs []int32) {
	for i := range s.frames {
		s.frames[i].next = noUse
	}
	if cap(p.next) < len(segs) {
		p.next = make([]int, len(segs))
	}
	p.next = p.next[:len(segs)]
	for i := len(segs) - 1; i >= 0; i-- {
		fr := &s.frames[segs[i]]
		p.next[i] = fr.next
		fr.next = i
	}
	p.segs, p.pos = segs, 0
}

// advance records that p's next step pins segment idx: the frame's next
// use moves to its following step.
func (s *Store) advance(p *plan, idx int32) {
	if p.pos < len(p.segs) && p.segs[p.pos] == idx {
		s.frames[idx].next = p.next[p.pos]
		p.pos++
	}
}

// victim returns the unpinned resident frame the victim rule evicts
// first, or -1 when every resident frame is pinned.
func (s *Store) victim() int32 {
	best := int32(-1)
	for i := range s.frames {
		fr := &s.frames[i]
		if fr.state != resident || fr.refs != 0 {
			continue
		}
		if best < 0 || fr.next >= s.frames[best].next {
			best = int32(i)
		}
	}
	return best
}

// makeRoom evicts by the victim rule until need more bytes fit the
// budget. A pin (before < 0) evicts whatever is unpinned and may
// overshoot when pins hold the rest. A prefetch for step before is all
// or nothing: it evicts only frames next used after that step, and
// evicts nothing when those cannot make the room.
func (s *Store) makeRoom(need int64, before int) bool {
	if s.budget <= 0 {
		return true
	}
	if before >= 0 {
		room := s.budget - s.resident
		for i := range s.frames {
			fr := &s.frames[i]
			if fr.state == resident && fr.refs == 0 && fr.next > before {
				room += s.segCost(int32(i))
			}
		}
		if room < need {
			return false
		}
	}
	for s.resident+need > s.budget {
		v := s.victim()
		if v < 0 {
			return false
		}
		s.evict(v)
	}
	return true
}

// prefetchNext reserves the segment of p's next step for the
// prefetcher when it is cold, no prefetch is outstanding, and the victim
// rule can make room for it. One step ahead keeps one decode beside the
// traversal, which fills a second CPU; reaching further would spend
// budget on frames the traversal is not yet near. Called with s.mu held;
// the send never blocks, since the channel holds the one outstanding
// load.
func (s *Store) prefetchNext(p *plan) {
	if p.inflight || p.pos >= len(p.segs) {
		return
	}
	idx := p.segs[p.pos]
	if s.frames[idx].state != cold || !s.makeRoom(s.segCost(idx), p.pos) {
		return
	}
	p.inflight = true
	p.jobs <- s.reserve(idx)
}

// prefetch is a Run's prefetcher: it decodes the loads prefetchNext
// reserved, outside s.mu, until the Run closes p.jobs, then closes done.
// A failed prefetch leaves its frame cold; the pin that needs the
// segment loads it again and reports the error.
func (s *Store) prefetch(p *plan, done chan<- struct{}) {
	defer close(done)
	for f := range p.jobs {
		if testHookPrefetch != nil {
			testHookPrefetch()
		}
		edges, weights, err := s.decode(f)
		s.mu.Lock()
		_ = s.publish(f, edges, weights, err) // reported by the demand pin, see above
		p.inflight = false
		s.mu.Unlock()
	}
}

// testHookPrefetch, when set by a test before a Run, is called by the
// prefetcher for each reserved load before it decodes.
var testHookPrefetch func()
