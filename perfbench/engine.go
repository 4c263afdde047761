package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"paracrash/internal/causality"
	"paracrash/internal/paracrash"
	"paracrash/internal/trace"
)

// jobTimeout bounds one checker job; a job that needs longer fails.
const jobTimeout = 60 * time.Second

// runJob runs one checker job end to end: a fresh stack, then the full
// pipeline with the engine's default options.
func runJob(j job) (*paracrash.Report, error) {
	fs, w, lib, err := j.stack()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	return paracrash.RunContext(ctx, fs, lib, w, paracrash.DefaultOptions())
}

// engineTracer attributes traced engine jobs to layers. The clock times
// the calls the engine makes into each layer; the rest is counted here.
// Engine workloads run one job at a time from one goroutine.
type engineTracer struct {
	clk layerClock

	wall, covered       time.Duration // traced job wall, and the part timed calls cover
	build, generate     time.Duration // causality.Build, NewEmulator+Generate outside the job
	traceOps, states    int64
	checked, pruned     int64
	legalPFS, legalLib  int64
	mallocs, allocBytes uint64
}

// run executes the job through the timing wrappers and returns its report
// and wall time. Then, outside the job, it rebuilds the causality graph
// and regenerates the crash states from the job's own recorded ops, timing
// each, and cross-checks the counts against the engine's Stats.
func (t *engineTracer) run(j job) (*paracrash.Report, time.Duration, error) {
	start := time.Now()
	coveredBefore := t.clk.coveredTime()
	fs, w, lib, err := j.stack()
	if err != nil {
		return nil, 0, err
	}
	tfs, err := wrapFS(fs, &t.clk)
	if err != nil {
		return nil, 0, err
	}
	tw := &timedWorkload{inner: w, clk: &t.clk}
	var tlib paracrash.Library
	if lib != nil {
		tlib = &timedLibrary{inner: lib, clk: &t.clk}
	}
	opts := paracrash.DefaultOptions()
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep, err := paracrash.RunContext(ctx, tfs, tlib, tw, opts)
	runtime.ReadMemStats(&m1)
	wall := time.Since(start)
	covered := t.clk.coveredTime() - coveredBefore
	if err != nil {
		return nil, wall, err
	}

	b0 := time.Now()
	g := causality.Build(tw.ops)
	build := time.Since(b0)
	g0 := time.Now()
	emu := paracrash.NewEmulator(g, fs.PersistConfig())
	states := emu.Generate(emulatorConfig(opts), func(paracrash.CrashState) bool { return true })
	generate := time.Since(g0)

	st := rep.Stats
	if states != st.StatesGenerated {
		return nil, wall, fmt.Errorf("%s: emulate.states %d != Stats.StatesGenerated %d", j.key, states, st.StatesGenerated)
	}
	if len(tw.ops) != st.TraceOps {
		return nil, wall, fmt.Errorf("%s: trace.ops %d != Stats.TraceOps %d", j.key, len(tw.ops), st.TraceOps)
	}

	t.wall += wall
	t.covered += covered
	t.build += build
	t.generate += generate
	t.traceOps += int64(len(tw.ops))
	t.states += int64(states)
	t.checked += int64(st.StatesChecked)
	t.pruned += int64(st.StatesPruned)
	t.legalPFS += int64(st.LegalPFSStates)
	t.legalLib += int64(st.LegalLibStates)
	t.mallocs += m1.Mallocs - m0.Mallocs
	t.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	return rep, wall, nil
}

// emulatorConfig is the crash-generation configuration the engine derives
// from its options: in the pruning and optimized modes, semantic pruning
// keeps library dataset-chunk writes out of the victims. The traced run's
// emulate.states cross-check against Stats.StatesGenerated fails if this
// drifts from the engine's own rule.
func emulatorConfig(opts paracrash.Options) paracrash.EmulatorConfig {
	cfg := opts.Emulator
	if opts.Mode != paracrash.ModeBrute && !opts.DisableSemanticPruning {
		cfg.VictimFilter = func(op *trace.Op) bool { return !strings.HasPrefix(op.Tag, "h5:data") }
	}
	return cfg
}

// metrics reports the per-layer metrics, per pass over the job list.
func (t *engineTracer) metrics(passes float64, m map[string]float64) {
	secs := func(d time.Duration) float64 { return d.Seconds() / passes }
	perPass := func(n int64) float64 { return float64(n) / passes }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := &t.clk
	m["trace.run_s"] = secs(time.Duration(c.nanos[bTrace].Load()))
	m["trace.ops"] = perPass(t.traceOps)
	m["causality.build_s"] = secs(t.build)
	m["emulate.generate_s"] = secs(t.generate)
	m["emulate.states"] = perPass(t.states)
	m["engine.self_s"] = secs(t.wall - t.covered)
	m["engine.checked_ratio"] = ratio(float64(t.checked), float64(t.states))
	m["engine.pruned_ratio"] = ratio(float64(t.pruned), float64(t.states))
	m["engine.allocs_per_state"] = ratio(float64(t.mallocs), float64(t.states))
	m["engine.alloc_bytes_per_state"] = ratio(float64(t.allocBytes), float64(t.states))
	m["legal.pfs_states"] = perPass(t.legalPFS)
	m["legal.lib_states"] = perPass(t.legalLib)
	for _, b := range []struct {
		name string
		b    boundary
	}{
		{"pfs.restore", bRestore}, {"pfs.apply", bApply}, {"pfs.recover", bRecover},
		{"pfs.mount", bMount}, {"pfs.client", bClient},
		{"lib.replay", bLibReplay}, {"lib.parse", bLibParse}, {"lib.recover", bLibRecover},
	} {
		m[b.name+"_calls"] = perPass(c.calls[b.b].Load())
		m[b.name+"_s"] = secs(time.Duration(c.nanos[b.b].Load()))
	}
	m["pfs.restores_per_state"] = ratio(float64(c.calls[bRestore].Load()), float64(t.states))
}
