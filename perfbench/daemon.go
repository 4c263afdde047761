package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"paracrash/internal/obs"
	"paracrash/internal/serve"
)

// daemon is an in-process paracrashd in standalone mode: the scheduler
// with its zero-value defaults, the in-memory store (the daemon's
// `-results ""` default), and the HTTP API on a loopback port.
type daemon struct {
	sched  *serve.Scheduler
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// startDaemon brings the daemon up and returns once /healthz answers.
func startDaemon() (*daemon, error) {
	run := obs.NewRun()
	store, warns := serve.OpenStore("")
	if len(warns) > 0 {
		return nil, fmt.Errorf("open store: %v", warns[0])
	}
	sched := serve.NewScheduler(serve.SchedulerConfig{}, store, run)
	sched.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sched.Drain(context.Background())
		return nil, err
	}
	d := &daemon{
		sched:  sched,
		srv:    &http.Server{Handler: serve.NewServer(sched, store, run)},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: jobTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	resp, err := d.client.Get(d.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		_ = d.stop()
		return nil, err
	}
	return d, nil
}

// stop drains the scheduler, shuts the HTTP server down and waits for it.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.client.CloseIdleConnections()
	derr := d.sched.Drain(ctx)
	serr := d.srv.Shutdown(ctx)
	<-d.served
	d.sched.Router().Close()
	return errors.Join(derr, serr)
}

// serveTracer collects the daemon-path breakdown of traced jobs.
type serveTracer struct {
	mu                          sync.Mutex
	submit, queue, run, deliver []float64 // ms per job
	recordBytes                 int64
	earlyClose, rejected        int64
}

// runJob submits one explore job, follows its event stream to the end,
// then reads the job record until it is terminal. It returns the verdict
// digest and the submit → verdict time. The events stream is documented
// to close at the terminal state, but the scheduler closes it just before
// it stores that state, so the record may still read as running; the
// client then re-reads it (counted in serve.early_close).
func (d *daemon) runJob(j job, tr *serveTracer) (string, time.Duration, error) {
	start := time.Now()
	req, err := json.Marshal(serve.JobRequest{FS: j.fs, Program: j.prog.Name})
	if err != nil {
		return "", 0, err
	}
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(req))
	if err != nil {
		return "", 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		if tr != nil && resp.StatusCode == http.StatusTooManyRequests {
			tr.mu.Lock()
			tr.rejected++
			tr.mu.Unlock()
		}
		return "", time.Since(start), fmt.Errorf("%s: submit: %s: %s", j.key, resp.Status, bytes.TrimSpace(body))
	}
	submitted := time.Since(start)
	var sub serve.Job
	if err := json.Unmarshal(body, &sub); err != nil {
		return "", 0, fmt.Errorf("%s: submit response: %w", j.key, err)
	}

	resp, err = d.client.Get(d.base + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		return "", 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", 0, fmt.Errorf("%s: events: %w", j.key, err)
	}

	var rec serve.Job
	early := false
	for {
		body, err = d.get("/v1/jobs/" + sub.ID)
		if err != nil {
			return "", 0, fmt.Errorf("%s: %w", j.key, err)
		}
		rec = serve.Job{}
		if err := json.Unmarshal(body, &rec); err != nil {
			return "", 0, fmt.Errorf("%s: job record: %w", j.key, err)
		}
		if rec.State.Terminal() {
			break
		}
		if time.Since(start) > jobTimeout {
			return "", 0, fmt.Errorf("%s: job %s still %s after %v", j.key, rec.ID, rec.State, jobTimeout)
		}
		early = true
		time.Sleep(100 * time.Microsecond)
	}
	read := time.Now()
	wall := read.Sub(start)
	if rec.State != serve.JobDone || rec.Report == nil {
		return "", wall, fmt.Errorf("%s: job %s ended %s: %s", j.key, rec.ID, rec.State, rec.Error)
	}
	if tr != nil && rec.StartedAt != nil && rec.FinishedAt != nil {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		tr.mu.Lock()
		tr.submit = append(tr.submit, ms(submitted))
		tr.queue = append(tr.queue, ms(rec.StartedAt.Sub(rec.CreatedAt)))
		tr.run = append(tr.run, ms(rec.FinishedAt.Sub(*rec.StartedAt)))
		tr.deliver = append(tr.deliver, ms(read.Sub(*rec.FinishedAt)))
		tr.recordBytes += int64(len(body))
		if early {
			tr.earlyClose++
		}
		tr.mu.Unlock()
	}
	return kernelDigest(rec.Report), wall, nil
}

// get reads one resource and fails on any status but 200.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// metrics reports the serve breakdown: medians over traced jobs, and
// counts per pass over the job list.
func (t *serveTracer) metrics(passes float64, m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m["serve.submit_ms_p50"] = percentile(t.submit, 0.50)
	m["serve.queue_ms_p50"] = percentile(t.queue, 0.50)
	m["serve.run_ms_p50"] = percentile(t.run, 0.50)
	m["serve.deliver_ms_p50"] = percentile(t.deliver, 0.50)
	m["serve.record_bytes"] = 0
	if n := len(t.submit); n > 0 {
		m["serve.record_bytes"] = float64(t.recordBytes) / float64(n)
	}
	m["serve.early_close"] = float64(t.earlyClose) / passes
	m["serve.rejected"] = float64(t.rejected) / passes
}
