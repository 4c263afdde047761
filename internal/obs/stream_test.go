package obs

import (
	"testing"
	"time"
)

func TestStreamSinkHistoryAndLive(t *testing.T) {
	s := NewStreamSink(4)
	s.WriteBatch(Batch{Elapsed: 1})
	s.WriteBatch(Batch{Elapsed: 2})

	history, live, cancel := s.Subscribe()
	defer cancel()
	if len(history) != 2 || history[0].ElapsedSeconds != 1 || history[1].ElapsedSeconds != 2 {
		t.Fatalf("history = %+v, want the two emitted events", history)
	}

	s.WriteBatch(Batch{Elapsed: 3})
	select {
	case ev := <-live:
		if ev.ElapsedSeconds != 3 {
			t.Fatalf("live event = %+v, want elapsed 3", ev)
		}
	case <-time.After(time.Second):
		t.Fatal("no live event delivered")
	}
}

func TestStreamSinkRingBound(t *testing.T) {
	s := NewStreamSink(3)
	for i := 1; i <= 10; i++ {
		s.WriteBatch(Batch{Elapsed: float64(i)})
	}
	history, _, cancel := s.Subscribe()
	defer cancel()
	if len(history) != 3 {
		t.Fatalf("history length = %d, want 3", len(history))
	}
	if history[0].ElapsedSeconds != 8 || history[2].ElapsedSeconds != 10 {
		t.Fatalf("history = %+v, want the last three events", history)
	}
}

func TestStreamSinkFinalClosesSubscribers(t *testing.T) {
	s := NewStreamSink(8)
	_, live, cancel := s.Subscribe()
	defer cancel()
	s.WriteBatch(Batch{Elapsed: 1, Final: true})

	// The final event arrives, then the channel closes.
	ev, ok := <-live
	if !ok || !ev.Final {
		t.Fatalf("first receive = (%+v, %v), want the final event", ev, ok)
	}
	if _, ok := <-live; ok {
		t.Fatal("channel still open after final event")
	}
	// Late subscription to a closed stream: history replays, channel is
	// already closed.
	history, late, lateCancel := s.Subscribe()
	defer lateCancel()
	if len(history) != 1 {
		t.Fatalf("late history length = %d, want 1", len(history))
	}
	if _, ok := <-late; ok {
		t.Fatal("late channel open on closed stream")
	}
}

func TestStreamSinkSlowSubscriberDoesNotBlock(t *testing.T) {
	s := NewStreamSink(4)
	_, _, cancel := s.Subscribe() // never drained
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < subscriberBuffer*3; i++ {
			s.WriteBatch(Batch{Elapsed: float64(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WriteBatch blocked on an undrained subscriber")
	}
}

func TestStreamSinkOnRun(t *testing.T) {
	r := NewRun()
	s := NewStreamSink(16)
	rt := NewRouter()
	rt.Attach("", r)
	rt.AddSink(s)
	rt.Start(time.Millisecond)
	r.Counter("x").Inc()
	time.Sleep(10 * time.Millisecond)
	rt.Close()

	history, live, cancel := s.Subscribe()
	defer cancel()
	if len(history) == 0 {
		t.Fatal("no events recorded from a sampling loop")
	}
	last := history[len(history)-1]
	if !last.Final || last.Counters["x"] != 1 {
		t.Fatalf("last event %+v, want final with x=1 after Close", last)
	}
	if _, ok := <-live; ok {
		t.Fatal("live channel open after Close")
	}
}
