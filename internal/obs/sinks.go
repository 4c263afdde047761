package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// TextSink renders each batch's samples as human-oriented lines on W, one
// per line ("name value" for fleet series, `name{job="id"} value` for per-job
// series) with a blank line between batches — the stdout sink.
type TextSink struct {
	// W receives the rendered lines.
	W io.Writer
	// mu serialises writes from Flush-time callers against the worker.
	mu sync.Mutex
}

// WriteBatch implements Sink.
func (s *TextSink) WriteBatch(batch Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for _, m := range batch.Metrics {
		if m.Job == "" {
			fmt.Fprintf(&b, "%s %s\n", m.Name, formatValue(m.Value))
		} else {
			fmt.Fprintf(&b, "%s{job=%q} %s\n", m.Name, m.Job, formatValue(m.Value))
		}
	}
	b.WriteByte('\n')
	_, err := io.WriteString(s.W, b.String())
	return err
}

// metricJSON is the stable wire shape of one sample in JSON sinks and the
// HTTP push payload.
type metricJSON struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Job   string  `json:"job,omitempty"`
	Value float64 `json:"value"`
}

func toJSON(batch []Metric) []metricJSON {
	out := make([]metricJSON, len(batch))
	for i, m := range batch {
		out[i] = metricJSON{Name: m.Name, Kind: m.Kind.String(), Job: m.Job, Value: m.Value}
	}
	return out
}

// MetricJSONLSink writes each batch's samples as one JSON array per line
// — the machine-readable file sink (distinct from JSONLSink, which encodes
// progress Events).
type MetricJSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewMetricJSONLSink returns a sink encoding batches onto w, one JSON
// array per line.
func NewMetricJSONLSink(w io.Writer) *MetricJSONLSink {
	return &MetricJSONLSink{enc: json.NewEncoder(w)}
}

// WriteBatch implements Sink.
func (s *MetricJSONLSink) WriteBatch(batch Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(toJSON(batch.Metrics))
}

// HTTPPushSink POSTs each batch's samples as a JSON array to URL — the push
// counterpart of the pull-style /metrics endpoint, for fleets funnelling
// into a central receiver. Requests are bounded by Timeout (default 5s) so
// a dead receiver costs at most one in-flight request per batch; the
// router's queue absorbs or drops the rest.
type HTTPPushSink struct {
	// URL is the receiver endpoint.
	URL string
	// Client overrides the HTTP client (nil uses a default with Timeout).
	Client *http.Client
	// Timeout bounds each push when Client is nil (default 5s).
	Timeout time.Duration

	once   sync.Once
	client *http.Client
}

// WriteBatch implements Sink.
func (s *HTTPPushSink) WriteBatch(batch Batch) error {
	s.once.Do(func() {
		s.client = s.Client
		if s.client == nil {
			to := s.Timeout
			if to <= 0 {
				to = 5 * time.Second
			}
			s.client = &http.Client{Timeout: to}
		}
	})
	body, err := json.Marshal(toJSON(batch.Metrics))
	if err != nil {
		return err
	}
	resp, err := s.client.Post(s.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("obs: push to %s: status %s", s.URL, resp.Status)
	}
	return nil
}

// parseSinkSpec is the one home of the -sink grammar (see SinkSpecList):
// it splits a valid spec into its kind and argument (the path or URL).
func parseSinkSpec(spec string) (kind, arg string, err error) {
	kind, arg, _ = strings.Cut(spec, ":")
	switch {
	case spec == "stdout", spec == "stderr":
		return spec, "", nil
	case kind == "jsonl" && arg != "":
		return kind, arg, nil
	case kind == "push" && (strings.HasPrefix(arg, "http://") || strings.HasPrefix(arg, "https://")):
		return kind, arg, nil
	}
	return "", "", fmt.Errorf("unknown sink spec %q (want stdout, stderr, jsonl:PATH or push:URL)", spec)
}

// OpenSinks builds the sinks named by -sink specifications (see
// SinkSpecList for the grammar) and returns them with one function that
// releases what they hold (the file sinks' descriptors). On error it
// closes the sinks it already opened.
func OpenSinks(specs []string) ([]Sink, func() error, error) {
	var sinks []Sink
	var files []*os.File
	closeAll := func() error {
		var errs []error
		for _, f := range files {
			errs = append(errs, f.Close())
		}
		return errors.Join(errs...)
	}
	for _, spec := range specs {
		kind, arg, err := parseSinkSpec(spec)
		if err != nil {
			_ = closeAll()
			return nil, nil, fmt.Errorf("obs: %w", err)
		}
		switch kind {
		case "stdout":
			sinks = append(sinks, &TextSink{W: os.Stdout})
		case "stderr":
			sinks = append(sinks, &TextSink{W: os.Stderr})
		case "jsonl":
			f, err := os.OpenFile(arg, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				_ = closeAll()
				return nil, nil, fmt.Errorf("obs: sink %q: %w", spec, err)
			}
			files = append(files, f)
			sinks = append(sinks, NewMetricJSONLSink(f))
		case "push":
			sinks = append(sinks, &HTTPPushSink{URL: arg})
		}
	}
	return sinks, closeAll, nil
}

// SinkSpecList is a repeatable -sink flag value accumulating sink
// specifications:
//
//	stdout          human-readable lines on standard output
//	stderr          the same on standard error
//	jsonl:PATH      one JSON array per batch appended to PATH
//	push:URL        POST each batch as JSON to URL (http:// or https://)
type SinkSpecList []string

// String implements flag.Value.
func (l *SinkSpecList) String() string { return strings.Join(*l, ",") }

// Set implements flag.Value, validating the spec eagerly so flag parsing
// reports bad specs (files are opened later by OpenSinks).
func (l *SinkSpecList) Set(v string) error {
	if _, _, err := parseSinkSpec(v); err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

// formatValue renders a metric value without float noise: integral values
// (the common case — counters and gauges) print as integers.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
