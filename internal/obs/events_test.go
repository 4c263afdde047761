package obs

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// goldenBatches are three router batches whose progress view is the fixed
// event sequence recorded in testdata/events.golden: a first event with no
// rates, a second with rates, and a final one. Besides the fleet counters
// and gauges the events show, each batch carries series the view must
// skip: timer samples, a per-job series and a router self-series.
func goldenBatches() []Batch {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	batch := func(at time.Duration, elapsed float64, phase string, ops, checked, legal float64, final bool) Batch {
		return Batch{
			At: t0.Add(at), Elapsed: elapsed, Phase: phase, Final: final,
			Metrics: []Metric{
				{Name: "legal/pfs", Kind: KindGauge, Value: legal},
				{Name: "obs/router/dropped-batches", Kind: KindCounter, Value: 2},
				{Name: "ops/replayed", Kind: KindCounter, Value: ops},
				{Name: "phase/explore/count", Kind: KindTimer, Value: 1},
				{Name: "phase/explore/seconds", Kind: KindTimer, Value: elapsed},
				{Name: "states/checked", Kind: KindCounter, Value: checked},
				{Name: "states/checked", Kind: KindCounter, Job: "job-a", Value: checked},
			},
		}
	}
	return []Batch{
		batch(0, 0.5, "graph-build", 4, 10, 3, false),
		batch(time.Second, 1.5, "explore", 12, 30, 5, false),
		batch(2*time.Second, 2.5, "explore", 12, 45, 5, true),
	}
}

// TestEventsGolden pins the progress wire format: the golden batches
// through JSONLSink must reproduce, byte for byte, the JSON lines the
// recorded events encode to.
func TestEventsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/events.golden")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	for _, b := range goldenBatches() {
		if err := s.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("events from batches:\n%s\nwant (testdata/events.golden):\n%s", buf.Bytes(), want)
	}
}

// TestNewEventRatesSkipUnseenAndZeroInterval covers the rate edge cases:
// a counter absent from the previous batch rates against zero, and a
// batch not later than the previous one gets no rates.
func TestNewEventRatesSkipUnseenAndZeroInterval(t *testing.T) {
	t0 := time.Unix(100, 0)
	prev := Batch{At: t0}
	cur := Batch{At: t0.Add(2 * time.Second), Metrics: []Metric{{Name: "x", Kind: KindCounter, Value: 8}}}
	if ev := NewEvent(&prev, cur); ev.Rates["x"] != 4 {
		t.Fatalf("rate of a new counter = %v, want 4/s", ev.Rates)
	}
	cur.At = t0
	if ev := NewEvent(&prev, cur); ev.Rates != nil {
		t.Fatalf("zero interval produced rates %v", ev.Rates)
	}
}
