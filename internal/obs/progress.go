package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Event is one progress snapshot: the view of a router batch that the
// progress sinks (HumanSink, JSONLSink, StreamSink) render. NewEvent is
// its only builder.
type Event struct {
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	Phase          string           `json:"phase,omitempty"`
	Counters       map[string]int64 `json:"counters,omitempty"`
	Gauges         map[string]int64 `json:"gauges,omitempty"`
	// Rates holds the per-second delta of each counter since the previous
	// event (absent on the first event).
	Rates map[string]float64 `json:"rates,omitempty"`
	Final bool               `json:"final,omitempty"`
}

// NewEvent builds the progress view of cur: its elapsed time, phase and
// Final flag, and its fleet ("") counters and gauges — not timer samples,
// per-job series or the router's own obs/router/* series. Counters carry
// per-second rates against prev, the batch the same sink saw before (nil
// for the first, which has no rates).
func NewEvent(prev *Batch, cur Batch) Event {
	ev := Event{
		ElapsedSeconds: cur.Elapsed,
		Phase:          cur.Phase,
		Counters:       map[string]int64{},
		Gauges:         map[string]int64{},
		Final:          cur.Final,
	}
	for _, m := range cur.Metrics {
		if !progressSeries(m) {
			continue
		}
		if m.Kind == KindGauge {
			ev.Gauges[m.Name] = int64(m.Value)
		} else {
			ev.Counters[m.Name] = int64(m.Value)
		}
	}
	if prev == nil {
		return ev
	}
	dt := cur.At.Sub(prev.At).Seconds()
	if dt <= 0 {
		return ev
	}
	before := map[string]int64{}
	for _, m := range prev.Metrics {
		if progressSeries(m) && m.Kind == KindCounter {
			before[m.Name] = int64(m.Value)
		}
	}
	ev.Rates = make(map[string]float64, len(ev.Counters))
	for name, v := range ev.Counters {
		ev.Rates[name] = float64(v-before[name]) / dt
	}
	return ev
}

// progressSeries reports whether a sample belongs in a progress event: a
// fleet counter or gauge that is not one of the router's self-series.
func progressSeries(m Metric) bool {
	return m.Job == "" && m.Kind != KindTimer && !strings.HasPrefix(m.Name, "obs/router/")
}

// eventView turns the batches one sink receives into Events, remembering
// the previous batch for rates. Callers serialise access.
type eventView struct{ prev *Batch }

// next returns the event of b. The final batch releases the remembered
// one: nothing follows it.
func (v *eventView) next(b Batch) Event {
	ev := NewEvent(v.prev, b)
	v.prev = &b
	if b.Final {
		v.prev = nil
	}
	return ev
}

// HumanSink renders each batch's event as one compact ticker line, the
// CLI's -progress output.
type HumanSink struct {
	W    io.Writer
	mu   sync.Mutex
	view eventView
}

// WriteBatch implements Sink.
func (h *HumanSink) WriteBatch(b Batch) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	ev := h.view.next(b)
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%7.1fs]", ev.ElapsedSeconds)
	if ev.Phase != "" {
		fmt.Fprintf(&sb, " %-11s", ev.Phase)
	}
	for _, n := range sortedKeys(ev.Counters) {
		fmt.Fprintf(&sb, " %s=%d", n, ev.Counters[n])
		if r, ok := ev.Rates[n]; ok && r != 0 {
			fmt.Fprintf(&sb, "(+%.0f/s)", r)
		}
	}
	for _, n := range sortedKeys(ev.Gauges) {
		fmt.Fprintf(&sb, " %s=%d", n, ev.Gauges[n])
	}
	if ev.Final {
		sb.WriteString(" (final)")
	}
	_, err := fmt.Fprintln(h.W, sb.String())
	return err
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// JSONLSink writes each batch's event as one JSON line, the
// machine-readable progress stream (-progress-jsonl).
type JSONLSink struct {
	mu   sync.Mutex
	enc  *json.Encoder
	view eventView
}

// NewJSONLSink returns a sink encoding events onto w, one object per line.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// WriteBatch implements Sink.
func (s *JSONLSink) WriteBatch(b Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(s.view.next(b))
}
