package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"paracrash/internal/obs"
)

// TestEventsEndpointGolden pins the events endpoint's wire format to the
// progress stream's: batches delivered to a job's stream must come out of
// GET /v1/jobs/{id}/events as the exact bytes of obs's events.golden (the
// same bytes JSONLSink writes for them).
func TestEventsEndpointGolden(t *testing.T) {
	want, err := os.ReadFile("../obs/testdata/events.golden")
	if err != nil {
		t.Fatal(err)
	}
	st, _ := OpenStore("")
	run := obs.NewRun()
	s := NewScheduler(SchedulerConfig{}, st, run) // never started: the job stays queued
	j, err := s.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	batch := func(at time.Duration, elapsed float64, phase string, ops, checked, legal float64, final bool) obs.Batch {
		return obs.Batch{
			At: t0.Add(at), Elapsed: elapsed, Phase: phase, Final: final,
			Metrics: []obs.Metric{
				{Name: "legal/pfs", Kind: obs.KindGauge, Value: legal},
				{Name: "ops/replayed", Kind: obs.KindCounter, Value: ops},
				{Name: "phase/explore/seconds", Kind: obs.KindTimer, Value: elapsed},
				{Name: "states/checked", Kind: obs.KindCounter, Value: checked},
			},
		}
	}
	for _, b := range []obs.Batch{
		batch(0, 0.5, "graph-build", 4, 10, 3, false),
		batch(time.Second, 1.5, "explore", 12, 30, 5, false),
		batch(2*time.Second, 2.5, "explore", 12, 45, 5, true),
	} {
		if err := s.Events(j.ID).WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(NewServer(s, st, run))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("events endpoint body:\n%s\nwant (events.golden):\n%s", got, want)
	}
}
