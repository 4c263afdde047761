package obs

import (
	"errors"
	"io"
	"testing"
	"time"

	"paracrash/internal/faultinject"
)

// blockingSink wedges on every write until released — the worst-behaved
// sink the chaos gate models.
type blockingSink struct{ release chan struct{} }

func (s *blockingSink) WriteBatch(Batch) error {
	<-s.release
	return nil
}

// erroringSink fails every write.
type erroringSink struct{}

func (erroringSink) WriteBatch(Batch) error { return errors.New("sink down") }

// panickingSink panics on every write.
type panickingSink struct{}

func (panickingSink) WriteBatch(Batch) error { panic("sink exploded") }

// laggingSink records every batch into a ring after a fixed delay — a
// slow but healthy sink.
type laggingSink struct {
	ring  *RingSink
	delay time.Duration
}

func (s *laggingSink) WriteBatch(b Batch) error {
	time.Sleep(s.delay)
	return s.ring.WriteBatch(b)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestChaosBlockingSinkNeverStallsPublish pins the pipeline's central
// liveness claim: a sink wedged forever costs dropped batches, never a
// stalled Publish and never an unbounded Close.
func TestChaosBlockingSinkNeverStallsPublish(t *testing.T) {
	rt := NewRouter()
	rt.DrainTimeout = 50 * time.Millisecond
	rt.Attach("j", staticCollector{{Name: "states/checked", Kind: KindCounter, Value: 1}})
	blocked := &blockingSink{release: make(chan struct{})}
	defer close(blocked.release) // let the abandoned worker exit at test end
	rt.AddSink(blocked)

	start := time.Now()
	for i := 0; i < 64; i++ {
		rt.Publish()
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("64 publishes against a wedged sink took %v", elapsed)
	}
	if rt.Dropped() == 0 {
		t.Fatal("no batches dropped despite a wedged sink and a bounded queue")
	}

	start = time.Now()
	rt.Close()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close hostage to a wedged sink: took %v", elapsed)
	}
}

// TestChaosErroringSinkIsolated pins error isolation: a failing sink is
// counted and surfaced as a self-metric while a healthy sink beside it
// receives every batch.
func TestChaosErroringSinkIsolated(t *testing.T) {
	rt := NewRouter()
	rt.Attach("j", staticCollector{{Name: "states/checked", Kind: KindCounter, Value: 1}})
	ring := NewRingSink(64)
	rt.AddSink(erroringSink{})
	rt.AddSink(ring)

	const n = 5
	for i := 0; i < n; i++ {
		rt.Publish()
	}
	waitFor(t, "sink errors to be counted", func() bool { return rt.Errors() >= n })
	waitFor(t, "healthy sink to drain", func() bool { return ring.Len() >= n })

	// The failure is observable in the pipeline's own series.
	found := false
	for _, m := range rt.Sample() {
		if m.Name == "obs/router/sink-errors" && m.Value >= n {
			found = true
		}
	}
	if !found {
		t.Fatalf("obs/router/sink-errors self-metric missing: %+v", rt.Sample())
	}
	rt.Close()
}

// TestChaosPanickingSinkQuarantined pins that a sink panicking mid-write
// is converted into a counted error instead of killing the process.
func TestChaosPanickingSinkQuarantined(t *testing.T) {
	rt := NewRouter()
	rt.Attach("j", staticCollector{{Name: "x", Kind: KindCounter, Value: 1}})
	rt.AddSink(panickingSink{})
	rt.Publish()
	waitFor(t, "panic to be quarantined", func() bool { return rt.Errors() >= 1 })
	rt.Close()
}

// TestChaosInjectedSinkFaults drives the deterministic fault plane through
// the "obs/sink-write" site: each sink's first MaxPerPoint writes fault and
// are counted, the point heals, and subsequent batches flow — no retries,
// no stalls, no cross-sink interference.
func TestChaosInjectedSinkFaults(t *testing.T) {
	const faultsPerSink = 3
	rt := NewRouter()
	rt.Attach("j", staticCollector{{Name: "x", Kind: KindCounter, Value: 1}})
	rt.SetFaults(faultinject.New(faultinject.Config{
		Seed:        1,
		Rate:        1,
		Kinds:       []faultinject.Kind{faultinject.KindErr},
		Sites:       []string{"obs/sink-write"},
		MaxPerPoint: faultsPerSink,
	}))
	ringA, ringB := NewRingSink(64), NewRingSink(64)
	rt.AddSink(ringA)
	rt.AddSink(ringB)

	const publishes = 5
	for i := 0; i < publishes; i++ {
		rt.Publish()
	}
	rt.Close() // adds one final publish, then flushes both workers

	total := publishes + 1
	wantDelivered := total - faultsPerSink
	if got := ringA.Len(); got != wantDelivered {
		t.Fatalf("sink A delivered %d batches, want %d (faults heal after %d)", got, wantDelivered, faultsPerSink)
	}
	if got := ringB.Len(); got != wantDelivered {
		t.Fatalf("sink B delivered %d batches, want %d", got, wantDelivered)
	}
	if got := rt.Errors(); got != 2*faultsPerSink {
		t.Fatalf("Errors = %d, want %d", got, 2*faultsPerSink)
	}
}

// TestChaosLaggingSinkGetsFinalBatch pins "the final batch always
// flushes": a sink too slow for the publish rate loses intermediate
// batches, but Close still hands it the final one, carrying the final
// counter value.
func TestChaosLaggingSinkGetsFinalBatch(t *testing.T) {
	run := NewRun()
	c := run.Counter("states/checked")
	rt := NewRouter()
	rt.Attach("", run)
	lag := &laggingSink{ring: NewRingSink(1), delay: 5 * time.Millisecond}
	rt.AddSink(lag)
	for i := 0; i < 100; i++ {
		c.Add(11)
		rt.Publish()
	}
	rt.Close()

	if rt.Dropped() == 0 {
		t.Fatal("no batch dropped: the sink never lagged, so the test proves nothing")
	}
	last, ok := lag.ring.LastBatch()
	if !ok || !last.Final {
		t.Fatalf("lagging sink's last batch = %+v (ok=%v), want the final batch", last, ok)
	}
	if m, ok := lag.ring.Find("states/checked", ""); !ok || m.Value != 1100 {
		t.Fatalf("final batch states/checked = %v (ok=%v), want 1100", m.Value, ok)
	}
}

// TestChaosWedgedProgressSinkBoundedClose pins that a progress writer
// that stops draining (a stalled stderr) cannot hold shutdown: Close
// returns within DrainTimeout.
func TestChaosWedgedProgressSinkBoundedClose(t *testing.T) {
	pr, pw := io.Pipe() // nothing reads: every write blocks
	defer pr.Close()    // unblocks the abandoned writer at test end
	run := NewRun()
	run.Counter("states/checked").Inc()
	rt := NewRouter()
	rt.DrainTimeout = 100 * time.Millisecond
	rt.Attach("", run)
	rt.AddSink(&HumanSink{W: pw})
	rt.Start(time.Millisecond)
	time.Sleep(20 * time.Millisecond) // the sink wedges on its first line

	start := time.Now()
	done := make(chan struct{})
	go func() {
		rt.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Close still blocked after 3s on a wedged progress writer")
	}
	// The slack over DrainTimeout absorbs scheduling noise only.
	if elapsed := time.Since(start); elapsed > rt.DrainTimeout+400*time.Millisecond {
		t.Fatalf("Close took %v, want about DrainTimeout (%v)", elapsed, rt.DrainTimeout)
	}
}
