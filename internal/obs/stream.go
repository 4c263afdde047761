package obs

import "sync"

// StreamSink turns a router's batches into progress events, buffers them
// for late subscribers and fans live events out to active ones — the sink
// behind a job server's streamed events endpoint. It keeps the most recent
// Capacity events as history; Subscribe returns that history plus a live
// channel. A slow subscriber never blocks WriteBatch: events that do not
// fit in the subscriber's buffer are dropped for that subscriber only (the
// history keeps the authoritative record up to Capacity).
//
// The sink is closed by the Final batch a Router.Close delivers (or by an
// explicit CloseStream); subscription channels are then closed, so a
// consumer draining the channel terminates exactly when the run does.
type StreamSink struct {
	mu      sync.Mutex
	cap     int
	view    eventView
	history []Event
	subs    map[int]chan Event
	nextID  int
	closed  bool
}

// subscriberBuffer is the per-subscriber channel depth; a consumer that
// falls further behind than this starts losing intermediate events.
const subscriberBuffer = 64

// NewStreamSink returns a sink retaining up to capacity events of history
// (a non-positive capacity keeps a single event — the latest snapshot is
// always replayable).
func NewStreamSink(capacity int) *StreamSink {
	if capacity < 1 {
		capacity = 1
	}
	return &StreamSink{cap: capacity, subs: map[int]chan Event{}}
}

// WriteBatch implements Sink: record the batch's event and fan it out.
// The Final batch closes the stream.
func (s *StreamSink) WriteBatch(b Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	ev := s.view.next(b)
	s.history = append(s.history, ev)
	if len(s.history) > s.cap {
		s.history = s.history[len(s.history)-s.cap:]
	}
	for _, ch := range s.subs {
		select {
		case ch <- ev:
		default: // subscriber is behind; drop rather than block the run
		}
	}
	if ev.Final {
		s.closeLocked()
	}
	return nil
}

// closeLocked closes every subscription channel. Callers hold s.mu.
func (s *StreamSink) closeLocked() {
	s.closed = true
	s.view.prev = nil
	for id, ch := range s.subs {
		close(ch)
		delete(s.subs, id)
	}
}

// CloseStream ends the stream without a Final event (daemon shutdown,
// abandoned job). Idempotent.
func (s *StreamSink) CloseStream() {
	s.mu.Lock()
	if !s.closed {
		s.closeLocked()
	}
	s.mu.Unlock()
}

// Subscribe returns the buffered history, a channel of subsequent live
// events, and a cancel function releasing the subscription. On a closed
// stream the channel is already closed, so consumers handle completed and
// live runs uniformly: replay history, then drain the channel.
func (s *StreamSink) Subscribe() ([]Event, <-chan Event, func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	history := append([]Event(nil), s.history...)
	ch := make(chan Event, subscriberBuffer)
	if s.closed {
		close(ch)
		return history, ch, func() {}
	}
	id := s.nextID
	s.nextID++
	s.subs[id] = ch
	cancel := func() {
		s.mu.Lock()
		if c, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(c)
		}
		s.mu.Unlock()
	}
	return history, ch, cancel
}
