package obs

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paracrash/internal/faultinject"
)

// Batch is one sampling pass of a router, as every sink receives it.
type Batch struct {
	// At is the sample time.
	At time.Time
	// Elapsed is the wall time in seconds since the router's process-level
	// ("") collector started, when that collector is a *Run (0 otherwise).
	Elapsed float64
	// Phase is that run's current phase ("" without one).
	Phase string
	// Final marks the batch Close publishes, the last a sink receives.
	Final bool
	// Metrics holds the fleet series (empty Job) and the per-job series,
	// sorted by name then job. The slice is shared between sinks and must
	// not be mutated.
	Metrics []Metric
}

// Sink consumes a router's batches. WriteBatch is called from the sink's
// dedicated worker goroutine (one per AddSink), so implementations only
// need to serialise against themselves. A returned error is counted by
// the router and otherwise ignored — sinks are best-effort by design.
type Sink interface {
	WriteBatch(b Batch) error
}

// routerSinkQueue is the per-sink batch buffer depth. A sink that falls
// further behind than this loses whole batches (counted by Dropped), never
// stalling the sampling loop or any instrumented hot path.
const routerSinkQueue = 8

// sinkWorker decouples one sink from the router: batches are handed over a
// bounded channel and written on a dedicated goroutine, so a blocking or
// erroring sink can only ever cost its own batches.
type sinkWorker struct {
	sink Sink
	ch   chan Batch
	done chan struct{}
}

// Router is the telemetry pipeline's one sampler: it pulls samples from
// attached collectors (one per job, plus an unlabeled process collector),
// aggregates per-job series into fleet-level rollups, and fans the
// combined batch out to sinks — each behind a bounded, drop-on-overflow
// queue so telemetry can never stall the exploration hot path. Progress
// events are a view of these batches (see NewEvent).
//
// Fleet aggregation is merge-order independent: counters sum across live
// collectors plus the folded totals of detached ones (Detach folds a
// collector's final counter values into the fleet before removing it), and
// addition commutes, so any interleaving of job completions yields the
// same fleet totals. Gauges are instantaneous and sum across live
// collectors only — a finished job's queue depths are meaningless.
type Router struct {
	mu         sync.Mutex
	collectors map[string]Collector
	order      []string
	retired    map[string]Metric // folded counter and timer totals by name
	retOrder   []string
	workers    []*sinkWorker
	faults     *faultinject.Plan

	loopStop chan struct{}
	loopDone chan struct{}

	dropped atomic.Int64
	errs    atomic.Int64

	// DrainTimeout bounds how long Close waits to hand every sink the
	// final batch and for the sink workers to flush; a sink still blocked
	// past it is abandoned (zero means the 2s default). Set before Close.
	DrainTimeout time.Duration
}

// NewRouter returns an empty router. Attach collectors, add sinks, then
// either Start a sampling loop or call Publish manually.
func NewRouter() *Router {
	return &Router{
		collectors: map[string]Collector{},
		retired:    map[string]Metric{},
	}
}

// SetFaults arms the deterministic fault plane on the sink path (site
// "obs/sink-write", keyed by sink index) — the chaos tests' handle for
// proving that failing sinks drop metrics without touching verdicts.
func (rt *Router) SetFaults(p *faultinject.Plan) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.faults = p
	rt.mu.Unlock()
}

// Attach registers a collector under the given job label; samples it
// yields are emitted as per-job series and aggregated into the fleet
// rollup. The empty label is the process-level collector (a daemon's own
// run, or the one run of a CLI invocation or job): its samples contribute
// to the fleet without a per-job series, and when it is a *Run its clock
// and phase stamp every Batch. Re-attaching a label replaces the
// collector.
func (rt *Router) Attach(job string, c Collector) {
	if rt == nil || c == nil {
		return
	}
	rt.mu.Lock()
	if _, ok := rt.collectors[job]; !ok {
		rt.order = append(rt.order, job)
	}
	rt.collectors[job] = c
	rt.mu.Unlock()
}

// Detach removes the collector attached under job, folding its final
// counter and timer values into the fleet's retired totals so fleet
// counters stay monotonic across job completions. Gauges and unknown
// labels fold nothing.
func (rt *Router) Detach(job string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	c, ok := rt.collectors[job]
	if ok {
		delete(rt.collectors, job)
		for i, l := range rt.order {
			if l == job {
				rt.order = append(rt.order[:i], rt.order[i+1:]...)
				break
			}
		}
	}
	rt.mu.Unlock()
	if !ok {
		return
	}
	final := c.CollectMetrics(nil)
	rt.mu.Lock()
	for _, m := range final {
		if m.Kind == KindGauge {
			continue
		}
		r, seen := rt.retired[m.Name]
		if !seen {
			rt.retOrder = append(rt.retOrder, m.Name)
		}
		rt.retired[m.Name] = Metric{Name: m.Name, Kind: m.Kind, Value: r.Value + m.Value}
	}
	rt.mu.Unlock()
}

// AddSink attaches sinks, each behind a bounded queue and its own writer
// goroutine. Batches that do not fit a queue are dropped (see Dropped);
// write errors and injected faults are counted (see Errors) and never
// propagate.
func (rt *Router) AddSink(sinks ...Sink) {
	if rt == nil {
		return
	}
	for _, s := range sinks {
		if s == nil {
			continue
		}
		w := &sinkWorker{sink: s, ch: make(chan Batch, routerSinkQueue), done: make(chan struct{})}
		rt.mu.Lock()
		rt.workers = append(rt.workers, w)
		idx := len(rt.workers) - 1
		rt.mu.Unlock()
		go rt.runSink(w, idx)
	}
}

// runSink drains one sink's queue until the channel closes.
func (rt *Router) runSink(w *sinkWorker, idx int) {
	defer close(w.done)
	key := "sink-" + strconv.Itoa(idx)
	for b := range w.ch {
		rt.writeOne(w, key, b)
	}
}

// writeOne performs one guarded sink write: injected faults and sink
// errors are counted, and a panicking sink (or an injected KindPanic) is
// quarantined as one more error instead of killing the process.
func (rt *Router) writeOne(w *sinkWorker, key string, b Batch) {
	defer func() {
		if v := recover(); v != nil {
			rt.errs.Add(1)
		}
	}()
	rt.mu.Lock()
	faults := rt.faults
	rt.mu.Unlock()
	if err := faults.Point("obs/sink-write", key); err != nil {
		rt.errs.Add(1)
		return
	}
	if err := w.sink.WriteBatch(b); err != nil {
		rt.errs.Add(1)
	}
}

// Sample performs one synchronous collection pass: pull every attached
// collector, aggregate, and return the combined samples — fleet series
// (empty Job) and per-job series, sorted by name then job for
// deterministic output. Sample never touches the sinks; Publish does.
func (rt *Router) Sample() []Metric {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	labels := append([]string(nil), rt.order...)
	colls := make([]Collector, len(labels))
	for i, l := range labels {
		colls[i] = rt.collectors[l]
	}
	retired := make([]Metric, len(rt.retOrder))
	for i, n := range rt.retOrder {
		retired[i] = rt.retired[n]
	}
	rt.mu.Unlock()

	var samples []Metric
	for i, c := range colls {
		n := len(samples)
		samples = c.CollectMetrics(samples)
		for j := n; j < len(samples); j++ {
			samples[j].Job = labels[i]
		}
	}
	samples = append(samples, retired...)
	if d := rt.dropped.Load(); d > 0 {
		samples = append(samples, Metric{Name: "obs/router/dropped-batches", Kind: KindCounter, Value: float64(d)})
	}
	if e := rt.errs.Load(); e > 0 {
		samples = append(samples, Metric{Name: "obs/router/sink-errors", Kind: KindCounter, Value: float64(e)})
	}

	// Every sample adds into its fleet series; a job's sample also stays
	// as its own series.
	fleet := make(map[string]int, len(samples)) // name -> index in batch
	batch := make([]Metric, 0, len(samples))
	for _, m := range samples {
		if i, ok := fleet[m.Name]; ok {
			batch[i].Value += m.Value
		} else {
			fleet[m.Name] = len(batch)
			batch = append(batch, Metric{Name: m.Name, Kind: m.Kind, Value: m.Value})
		}
		if m.Job != "" {
			batch = append(batch, m)
		}
	}
	// (name, job) pairs are unique, so the order is total.
	slices.SortFunc(batch, func(a, b Metric) int {
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		return strings.Compare(a.Job, b.Job) // "" (fleet) sorts first
	})
	return batch
}

// sample stamps one collection pass with the process-level run's clock
// and phase.
func (rt *Router) sample(final bool) Batch {
	rt.mu.Lock()
	proc, _ := rt.collectors[""].(*Run)
	rt.mu.Unlock()
	b := Batch{At: time.Now(), Final: final, Metrics: rt.Sample()}
	if proc != nil {
		b.Elapsed = proc.Elapsed().Seconds()
		b.Phase = proc.CurrentPhase()
	}
	return b
}

// Publish samples once and hands the batch to every sink worker without
// blocking: a worker whose queue is full loses this batch (counted in
// Dropped). Safe from any goroutine.
func (rt *Router) Publish() {
	if rt == nil {
		return
	}
	b := rt.sample(false)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, w := range rt.workers {
		select {
		case w.ch <- b:
		default:
			rt.dropped.Add(1)
		}
	}
}

// Start launches the sampling loop, publishing every interval until Close.
// Idempotent; non-positive intervals and nil routers are no-ops (Publish
// remains available for manual control).
func (rt *Router) Start(interval time.Duration) {
	if rt == nil || interval <= 0 {
		return
	}
	rt.mu.Lock()
	if rt.loopStop != nil {
		rt.mu.Unlock()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	rt.loopStop, rt.loopDone = stop, done
	rt.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				rt.Publish()
			case <-stop:
				return
			}
		}
	}()
}

// Close stops the sampling loop, hands every sink one final batch (Final
// set), and waits for the sink workers to flush — all within
// DrainTimeout. A lagging sink still gets the final batch once its queue
// has room; a sink still blocked at the deadline is abandoned with its
// queued batches, so shutdown is never hostage to a wedged sink. Safe on
// nil routers; idempotent.
func (rt *Router) Close() {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	stop, done := rt.loopStop, rt.loopDone
	rt.loopStop, rt.loopDone = nil, nil
	rt.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}

	final := rt.sample(true)
	rt.mu.Lock()
	workers := rt.workers
	rt.workers = nil
	drain := rt.DrainTimeout
	rt.mu.Unlock()
	if drain <= 0 {
		drain = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	for _, w := range workers {
		select {
		case w.ch <- final:
		default: // queue full: wait for room, but not past the deadline
			select {
			case w.ch <- final:
			case <-ctx.Done():
				rt.dropped.Add(1)
			}
		}
		close(w.ch)
	}
	for _, w := range workers {
		select {
		case <-w.done:
		case <-ctx.Done():
			return
		}
	}
}

// Dropped returns how many batches were discarded because a sink's queue
// was full.
func (rt *Router) Dropped() int64 {
	if rt == nil {
		return 0
	}
	return rt.dropped.Load()
}

// Errors returns how many sink writes failed (sink errors plus injected
// faults).
func (rt *Router) Errors() int64 {
	if rt == nil {
		return 0
	}
	return rt.errs.Load()
}
