package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// TestTracedRunKeepsReports runs jobs on all six backends plainly and
// through the timing wrappers and requires identical report fingerprints,
// effort statistics included: a wrapper that lost a capability would move
// the engine onto another path and change them. The traced run's own
// count cross-checks run on every job too.
func TestTracedRunKeepsReports(t *testing.T) {
	jobs := posixGenJobs(7)[:2*len(exps.FSNames())]
	for _, name := range []string{"H5-create", "H5-parallel-create"} {
		prog, err := exps.ProgramByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, fs := range exps.FSNames() {
			jobs = append(jobs, job{key: name + "/" + fs, fs: fs, prog: prog, h5p: workloads.DefaultH5Params()})
		}
	}
	var tr engineTracer
	for _, j := range jobs {
		plain, err := runJob(j)
		if err != nil {
			t.Fatalf("%s: %v", j.key, err)
		}
		traced, _, err := tr.run(j)
		if err != nil {
			t.Fatalf("%s traced: %v", j.key, err)
		}
		if got, want := exps.ReportFingerprint(traced), exps.ReportFingerprint(plain); got != want {
			t.Errorf("%s: traced fingerprint differs\ntraced:\n%s\nplain:\n%s", j.key, got, want)
		}
	}
	if tr.clk.calls[bLibReplay].Load() == 0 || tr.clk.calls[bRestore].Load() == 0 {
		t.Errorf("wrappers timed no library replay or restore calls")
	}
}

// TestWrappedClonesKeepCapabilities checks that a wrapped backend and its
// clones expose every capability the engine probes for and share the
// clock.
func TestWrappedClonesKeepCapabilities(t *testing.T) {
	var clk layerClock
	for _, name := range exps.FSNames() {
		inner, err := exps.NewFS(name, exps.ConfigFor(name), trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		f, err := wrapFS(inner, &clk)
		if err != nil {
			t.Fatal(err)
		}
		for _, fs := range []pfs.FileSystem{f, f.CloneDetached()} {
			c, ok := fs.(*timedFS)
			if !ok || c.clk != &clk {
				t.Fatalf("%s: clone %T is not wrapped on the shared clock", name, fs)
			}
			_, a := fs.(pfs.Cloner)
			_, b := fs.(pfs.IncrementalStater)
			_, o := fs.(pfs.ObsAware)
			_, fa := fs.(pfs.FaultAware)
			_, th := fs.(pfs.TagHinter)
			if !a || !b || !o || !fa || !th {
				t.Errorf("%s: wrapped backend lost a capability", name)
			}
		}
	}
	var _ paracrash.Library = (*timedLibrary)(nil)
	var _ paracrash.Workload = (*timedWorkload)(nil)
}

// TestMeasureReportsBenchmarkMetrics runs cut-down job lists through
// measure, plain and traced, and requires a clean verdict check and
// exactly the metrics BENCHMARK.json declares, with the declared units.
func TestMeasureReportsBenchmarkMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	cases := map[string]workload{
		"daemon-mix": {jobs: func(seed int64) []job { return daemonMixJobs(seed)[:8] }, clients: 2, daemon: true},
		"h5-lib":     {jobs: func(seed int64) []job { return h5LibJobs(seed)[:4] }, clients: 1},
	}
	for name, w := range cases {
		for _, traced := range []bool{false, true} {
			res, err := measure(w, 1, time.Millisecond, traced, filepath.Join("golden", name+".json"), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
