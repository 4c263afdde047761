package obs

import "sync"

// RingSink is the bounded in-memory sink tests attach and assert against:
// it keeps the most recent Capacity batches and exposes snapshot accessors
// — deterministic assertions with no temp files, no scraping, no
// goroutines.
type RingSink struct {
	mu      sync.Mutex
	cap     int
	batches []Batch
}

// NewRingSink returns a ring retaining up to capacity batches (a
// non-positive capacity keeps one).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{cap: capacity}
}

// WriteBatch implements Sink. The samples are copied, so the ring stays
// valid however the caller reuses its buffers.
func (s *RingSink) WriteBatch(b Batch) error {
	b.Metrics = append([]Metric(nil), b.Metrics...)
	s.mu.Lock()
	s.batches = append(s.batches, b)
	if len(s.batches) > s.cap {
		s.batches = s.batches[len(s.batches)-s.cap:]
	}
	s.mu.Unlock()
	return nil
}

// Batches returns a copy of the retained batches, oldest first.
func (s *RingSink) Batches() []Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Batch(nil), s.batches...)
}

// LastBatch returns the most recent batch (false when none arrived).
func (s *RingSink) LastBatch() (Batch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.batches) == 0 {
		return Batch{}, false
	}
	return s.batches[len(s.batches)-1], true
}

// Find returns the sample with the given name and job label from the most
// recent batch (false when absent).
func (s *RingSink) Find(name, job string) (Metric, bool) {
	b, _ := s.LastBatch()
	for _, m := range b.Metrics {
		if m.Name == name && m.Job == job {
			return m, true
		}
	}
	return Metric{}, false
}

// Len returns how many batches the ring currently holds.
func (s *RingSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches)
}

// Reset discards all retained batches.
func (s *RingSink) Reset() {
	s.mu.Lock()
	s.batches = nil
	s.mu.Unlock()
}
