package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTextSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	s := &TextSink{W: &buf}
	err := s.WriteBatch(Batch{Metrics: []Metric{
		{Name: "states/checked", Kind: KindCounter, Value: 15},
		{Name: "states/checked", Kind: KindCounter, Job: "job-a", Value: 10},
		{Name: "phase/explore/seconds", Kind: KindTimer, Value: 1.5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := "states/checked 15\n" +
		"states/checked{job=\"job-a\"} 10\n" +
		"phase/explore/seconds 1.5\n" +
		"\n"
	if buf.String() != want {
		t.Fatalf("text sink output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestMetricJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewMetricJSONLSink(&buf)
	batches := [][]Metric{
		{{Name: "a", Kind: KindCounter, Value: 1}, {Name: "b", Kind: KindGauge, Job: "j", Value: 2.5}},
		{{Name: "a", Kind: KindCounter, Value: 3}},
	}
	for _, b := range batches {
		if err := s.WriteBatch(Batch{Metrics: b}); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want one per batch", len(lines))
	}
	var first []map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not a JSON array: %v", err)
	}
	if len(first) != 2 || first[0]["name"] != "a" || first[0]["kind"] != "counter" {
		t.Fatalf("line 0 = %v", first)
	}
	if first[1]["job"] != "j" || first[1]["kind"] != "gauge" || first[1]["value"] != 2.5 {
		t.Fatalf("line 0 sample 1 = %v", first[1])
	}
	if _, hasJob := first[0]["job"]; hasJob {
		t.Fatal("fleet sample must omit the job key")
	}
}

func TestHTTPPushSink(t *testing.T) {
	type push struct {
		body []byte
		ct   string
	}
	got := make(chan push, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got <- push{body, r.Header.Get("Content-Type")}
	}))
	defer srv.Close()

	s := &HTTPPushSink{URL: srv.URL}
	if err := s.WriteBatch(Batch{Metrics: []Metric{{Name: "x", Kind: KindCounter, Value: 4}}}); err != nil {
		t.Fatal(err)
	}
	p := <-got
	if p.ct != "application/json" {
		t.Fatalf("Content-Type = %q", p.ct)
	}
	var arr []map[string]any
	if err := json.Unmarshal(p.body, &arr); err != nil {
		t.Fatalf("push body not JSON: %v\n%s", err, p.body)
	}
	if len(arr) != 1 || arr[0]["name"] != "x" || arr[0]["value"] != 4.0 {
		t.Fatalf("push body = %v", arr)
	}
}

func TestHTTPPushSinkErrorStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	s := &HTTPPushSink{URL: srv.URL}
	if err := s.WriteBatch(Batch{Metrics: []Metric{{Name: "x"}}}); err == nil {
		t.Fatal("5xx response must surface as an error")
	}
}

// TestParseSinkSpec checks the -sink grammar through OpenSinks: valid
// specs open one sink each, malformed or unopenable ones fail.
func TestParseSinkSpec(t *testing.T) {
	dir := t.TempDir()
	jsonlPath := filepath.Join(dir, "out.jsonl")
	cases := []struct {
		spec    string
		wantErr bool
	}{
		{"stdout", false},
		{"stderr", false},
		{"jsonl:" + jsonlPath, false},
		{"push:http://localhost:1/x", false},
		{"push:https://example.com/x", false},
		{"jsonl:", true},
		{"jsonl:" + filepath.Join(dir, "missing", "out.jsonl"), true},
		{"push:ftp://nope", true},
		{"push:", true},
		{"stdout:x", true},
		{"bogus", true},
		{"", true},
	}
	for _, tc := range cases {
		sinks, closeSinks, err := OpenSinks([]string{tc.spec})
		if tc.wantErr {
			if err == nil {
				t.Errorf("OpenSinks(%q) succeeded, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("OpenSinks(%q): %v", tc.spec, err)
			continue
		}
		if len(sinks) != 1 || sinks[0] == nil || closeSinks == nil {
			t.Errorf("OpenSinks(%q) = %v sinks, closer nil: %v", tc.spec, len(sinks), closeSinks == nil)
			continue
		}
		if err := closeSinks(); err != nil {
			t.Errorf("OpenSinks(%q) closer: %v", tc.spec, err)
		}
	}
}

func TestParseSinkSpecJSONLWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	for _, m := range []Metric{{Name: "x", Kind: KindCounter, Value: 1}, {Name: "y", Kind: KindGauge, Value: 2}} {
		sinks, closeSinks, err := OpenSinks([]string{"jsonl:" + path})
		if err != nil {
			t.Fatal(err)
		}
		if err := sinks[0].WriteBatch(Batch{Metrics: []Metric{m}}); err != nil {
			t.Fatal(err)
		}
		if err := closeSinks(); err != nil {
			t.Fatal(err)
		}
	}
	// Appending: the second open adds a line rather than truncating.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl file has %d lines, want 2 (append semantics):\n%s", len(lines), raw)
	}
}

// TestOpenSinksClosesOnError pins the cleanup contract: when a later spec
// fails, the files already opened are closed before OpenSinks returns.
func TestOpenSinksClosesOnError(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count descriptors")
		}
		return len(fds)
	}
	dir := t.TempDir()
	before := openFDs()
	_, _, err := OpenSinks([]string{"jsonl:" + filepath.Join(dir, "a.jsonl"), "jsonl:" + filepath.Join(dir, "no", "b.jsonl")})
	if err == nil {
		t.Fatal("OpenSinks succeeded with an unopenable path")
	}
	if !strings.Contains(err.Error(), "no/b.jsonl") {
		t.Fatalf("error %q does not name the failing spec", err)
	}
	if after := openFDs(); after != before {
		t.Fatalf("open descriptors %d -> %d: the first sink's file leaked", before, after)
	}
}

func TestSinkSpecListFlag(t *testing.T) {
	var specs SinkSpecList
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Var(&specs, "sink", "")
	if err := fs.Parse([]string{"-sink", "stdout", "-sink", "jsonl:/tmp/x.jsonl", "-sink", "push:http://h/p"}); err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0] != "stdout" || specs[2] != "push:http://h/p" {
		t.Fatalf("specs = %v", specs)
	}
	if specs.String() == "" {
		t.Fatal("String() empty for a populated list")
	}

	var bad SinkSpecList
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	fs2.SetOutput(io.Discard)
	fs2.Var(&bad, "sink", "")
	if err := fs2.Parse([]string{"-sink", "bogus"}); err == nil {
		t.Fatal("bad spec accepted at flag-parse time")
	}
}
