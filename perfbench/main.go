// Command perfbench is the repository benchmark: it runs one seeded
// workload of checker jobs as a closed loop for a given time and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paracrash/internal/paracrash"
)

// workload is one benchmark workload: its seeded job list and how many
// closed-loop clients submit it.
type workload struct {
	jobs    func(seed int64) []job
	clients int
	daemon  bool
}

var workloadsByName = map[string]workload{
	"posix-gen":  {jobs: posixGenJobs, clients: 1},
	"h5-lib":     {jobs: h5LibJobs, clients: 1},
	"daemon-mix": {jobs: daemonMixJobs, clients: 2, daemon: true},
}

// setupReps is how many set-ups make one set-up round; setup_s is the
// median over every round of the run.
const setupReps = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: posix-gen, h5-lib or daemon-mix")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 10, "measurement time: passes over the job list run until their wall times add up to it")
	traced := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics instead of end-to-end ones")
	goldenDir := fl.String("golden", filepath.Join("perfbench", "golden"), "directory of recorded verdict digests")
	record := fl.Bool("record-golden", false, "run one pass and add its verdict digests to the golden file instead of measuring")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadsByName[*name]
	if !ok || fl.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload posix-gen|h5-lib|daemon-mix, -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	goldenPath := filepath.Join(*goldenDir, *name+".json")
	if *record {
		if err := recordGolden(w, *seed, goldenPath, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, goldenPath, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// env is what one set-up produces: the job list, the recorded verdicts
// and, for daemon-mix, the running daemon.
type env struct {
	jobs   []job
	golden map[string]string
	d      *daemon
}

// setup fills e in: it loads the golden digests, draws the job list,
// builds every checker job's stack once, so a job list that cannot run
// fails before measuring, and, for daemon-mix, brings the daemon up:
// everything between process start and the first submitted job.
func (e *env) setup(w workload, seed int64, goldenPath string) error {
	golden, err := loadGolden(goldenPath)
	if err != nil {
		return err
	}
	e.jobs, e.golden = w.jobs(seed), golden
	if w.daemon {
		e.d, err = startDaemon()
		return err
	}
	for _, j := range e.jobs {
		if _, _, _, err := j.stack(); err != nil {
			return fmt.Errorf("%s: %w", j.key, err)
		}
	}
	return nil
}

// close stops the daemon, if one is up.
func (e *env) close() error {
	if e.d == nil {
		return nil
	}
	err := e.d.stop()
	e.d = nil
	return err
}

// setupRound sets up setupReps times and appends each set-up's time to
// *times; e is left set up by the last one. Each set-up starts from a
// collected heap, as at process start, so a collection left over from
// earlier work is not charged to it.
func (e *env) setupRound(w workload, seed int64, goldenPath string, times *[]float64) error {
	for i := 0; i < setupReps; i++ {
		if err := e.close(); err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		if err := e.setup(w, seed, goldenPath); err != nil {
			return err
		}
		*times = append(*times, time.Since(start).Seconds())
	}
	return nil
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdicts checks every job's verdict digest: against the recorded digest
// when the job has one, otherwise against the job's earlier repetitions.
type verdicts struct {
	golden map[string]string
	mu     sync.Mutex
	seen   map[string]string
}

func (v *verdicts) check(key, digest string) error {
	if want, ok := v.golden[key]; ok {
		if digest != want {
			return fmt.Errorf("%s: verdict digest %s, recorded %s", key, digest, want)
		}
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if prev, ok := v.seen[key]; ok && prev != digest {
		return fmt.Errorf("%s: verdict digest %s, an earlier repetition gave %s", key, digest, prev)
	}
	v.seen[key] = digest
	return nil
}

// executor runs one job plainly or traced and returns its verdict digest
// and submit → verdict time.
type executor func(j job, traced bool) (string, time.Duration, error)

func newExecutor(w workload, e *env, eng *engineTracer, srv *serveTracer) executor {
	if w.daemon {
		return func(j job, traced bool) (string, time.Duration, error) {
			if traced {
				return e.d.runJob(j, srv)
			}
			return e.d.runJob(j, nil)
		}
	}
	return func(j job, traced bool) (string, time.Duration, error) {
		var rep *paracrash.Report
		var wall time.Duration
		var err error
		if traced {
			rep, wall, err = eng.run(j)
		} else {
			start := time.Now()
			rep, err = runJob(j)
			wall = time.Since(start)
		}
		if err != nil {
			return "", wall, err
		}
		return kernelDigest(rep), wall, nil
	}
}

// maxSteal is the share of the machine's CPU time the hypervisor may take
// during a pass before the pass is left out of the timing metrics. On a
// shared virtual machine, stolen time arrives in bursts that last up to
// minutes and can halve job throughput; it says nothing about the program.
const maxSteal = 0.02

// pass is one timed pass over the job list.
type pass struct {
	wall  time.Duration
	lat   []float64 // ms per job; +Inf for a failed job
	steal float64   // share of CPU time stolen by the hypervisor
}

func measure(w workload, seed int64, budget time.Duration, traced bool, goldenPath string, stderr io.Writer) (*result, error) {
	// Set-up rounds run before the first pass and after every pass, so
	// setup_s is a median over the whole run, not over one moment of it.
	// For daemon-mix the rounds also restart the daemon between passes.
	e := &env{}
	defer e.close()
	var setups []float64
	if err := e.setupRound(w, seed, goldenPath, &setups); err != nil {
		return nil, err
	}

	var eng engineTracer
	var srv serveTracer
	exec := newExecutor(w, e, &eng, &srv)
	v := &verdicts{golden: e.golden, seen: map[string]string{}}
	var (
		mu                sync.Mutex
		lat               []float64
		attempted, failed int
		plainD, tracedD   time.Duration
		logged            int
	)
	note := func(j job, digest string, wall time.Duration, err error) bool {
		if err == nil {
			err = v.check(j.key, digest)
		}
		mu.Lock()
		defer mu.Unlock()
		attempted++
		if err != nil {
			failed++
			if logged++; logged <= 5 {
				fmt.Fprintf(stderr, "perfbench: job failed: %v\n", err)
			}
			lat = append(lat, math.Inf(1))
			return false
		}
		lat = append(lat, float64(wall)/float64(time.Millisecond))
		return true
	}
	do := func(j job) {
		digest, d, err := exec(j, false)
		plainOK := note(j, digest, d, err)
		if !traced {
			return
		}
		digest, d2, err := exec(j, true)
		if note(j, digest, d2, err) && plainOK {
			mu.Lock()
			plainD += d
			tracedD += d2
			mu.Unlock()
		}
	}

	// Passes run until the passes without heavy steal add up to the
	// budget, and at least minPasses: every job must repeat so that the
	// verdict check can compare it with itself, and a traced pass runs each
	// job twice. No pass starts after half the budget again has gone by,
	// so a run stays bounded however much time is stolen. A pass that
	// starts runs to completion.
	minPasses := 2
	if traced {
		minPasses = 1
	}
	var passes []pass
	var cleanWall time.Duration
	start := time.Now()
	for len(passes) < minPasses || (cleanWall < budget && time.Since(start) < budget*3/2) {
		first := len(lat)
		steal0, total0 := cpuSteal()
		t := time.Now()
		runPass(e.jobs, w.clients, do)
		p := pass{wall: time.Since(t), lat: lat[first:]}
		if steal1, total1 := cpuSteal(); total1 > total0 {
			p.steal = float64(steal1-steal0) / float64(total1-total0)
		}
		if p.steal <= maxSteal {
			cleanWall += p.wall
		}
		passes = append(passes, p)
		if err := e.setupRound(w, seed, goldenPath, &setups); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if traced {
		m := map[string]float64{}
		eng.metrics(float64(len(passes)), m)
		srv.metrics(float64(len(passes)), m)
		m["obs.overhead_ratio"] = 0
		if plainD > 0 {
			m["obs.overhead_ratio"] = tracedD.Seconds() / plainD.Seconds()
		}
		for k, unit := range perLayerUnits {
			val, ok := m[k]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s not measured", k)
			}
			res.Metrics[k] = metric{Value: val, Unit: unit}
		}
		return res, nil
	}

	// Timing metrics come from the passes without heavy steal, or from
	// every pass when none was spared.
	var timed []pass
	for _, p := range passes {
		if p.steal <= maxSteal {
			timed = append(timed, p)
		}
	}
	if len(timed) == 0 {
		timed = passes
	}
	var samples []float64
	var wall time.Duration
	var perPass []string
	for _, p := range passes {
		perPass = append(perPass, fmt.Sprintf("%.0f/s@%.1f%%", float64(len(p.lat))/p.wall.Seconds(), 100*p.steal))
	}
	for _, p := range timed {
		samples = append(samples, p.lat...)
		wall += p.wall
	}
	ok := 0
	for _, l := range samples {
		if !math.IsInf(l, 1) {
			ok++
		}
	}
	p95 := percentile(samples, 0.95)
	beyond := 0
	for _, l := range samples {
		if l > p95 {
			beyond++
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	sort.Float64s(setups)
	fmt.Fprintf(stderr, "perfbench: %d jobs in %.2fs over %d of %d passes (jobs/s@steal: %s); %d samples above p95; set-up %.3g..%.3g s\n",
		len(samples), wall.Seconds(), len(timed), len(passes), strings.Join(perPass, " "), beyond, setups[0], setups[len(setups)-1])
	res.Metrics["setup_s"] = metric{percentile(setups, 0.5), "s"}
	res.Metrics["jobs_per_s"] = metric{float64(ok) / wall.Seconds(), "1/s"}
	res.Metrics["job_p50_ms"] = metric{finite(percentile(samples, 0.50)), "ms"}
	res.Metrics["job_p95_ms"] = metric{finite(p95), "ms"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	res.Metrics["ok_job_ratio"] = metric{float64(attempted-failed) / float64(attempted), "ratio"}
	return res, nil
}

// cpuSteal reads the machine's cumulative stolen and total CPU time, in
// clock ticks, from the first line of /proc/stat. Where it cannot be read,
// both are 0 and every pass counts as unstolen.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i := 1; i <= 8; i++ {
		n, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
	}
	steal, _ = strconv.ParseUint(f[8], 10, 64)
	return steal, total
}

// runPass runs every job once from the given number of closed-loop
// clients: each takes the next job in list order only when its previous
// one has finished.
func runPass(jobs []job, clients int, do func(j job)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				do(jobs[i])
			}
		}()
	}
	wg.Wait()
}

// percentile is the nearest-rank percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// finite maps a failed job's +Inf latency to the largest float, which JSON
// can carry.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// perLayerUnits gives each per-layer metric's unit. Times and counts are
// per pass over the job list; a layer a workload does not reach reads 0.
var perLayerUnits = map[string]string{
	"trace.run_s": "s", "trace.ops": "count",
	"causality.build_s":  "s",
	"emulate.generate_s": "s", "emulate.states": "count",
	"engine.self_s": "s", "engine.checked_ratio": "ratio", "engine.pruned_ratio": "ratio",
	"engine.allocs_per_state": "count", "engine.alloc_bytes_per_state": "bytes",
	"legal.pfs_states": "count", "legal.lib_states": "count",
	"pfs.restore_calls": "count", "pfs.restore_s": "s",
	"pfs.apply_calls": "count", "pfs.apply_s": "s",
	"pfs.recover_calls": "count", "pfs.recover_s": "s",
	"pfs.mount_calls": "count", "pfs.mount_s": "s",
	"pfs.client_calls": "count", "pfs.client_s": "s",
	"pfs.restores_per_state": "ratio",
	"lib.replay_calls":       "count", "lib.replay_s": "s",
	"lib.parse_calls": "count", "lib.parse_s": "s",
	"lib.recover_calls": "count", "lib.recover_s": "s",
	"serve.submit_ms_p50": "ms", "serve.queue_ms_p50": "ms", "serve.run_ms_p50": "ms",
	"serve.deliver_ms_p50": "ms", "serve.record_bytes": "bytes",
	"serve.early_close": "count", "serve.rejected": "count",
	"obs.overhead_ratio": "ratio",
}

// loadGolden reads the recorded verdict digests; a missing file records
// nothing, so every job falls back to the repetition check.
func loadGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	g := map[string]string{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// recordGolden runs one pass of the seed's job list and adds every job's
// verdict digest to the golden file. A job whose digest disagrees with an
// existing record is an error: records are never overwritten.
func recordGolden(w workload, seed int64, path string, stderr io.Writer) error {
	e := &env{}
	defer e.close()
	if err := e.setup(w, seed, path); err != nil {
		return err
	}
	v := &verdicts{golden: e.golden, seen: map[string]string{}}
	var mu sync.Mutex
	var errs []error
	exec := newExecutor(w, e, nil, nil)
	runPass(e.jobs, w.clients, func(j job) {
		digest, _, err := exec(j, false)
		if err == nil {
			err = v.check(j.key, digest)
		}
		if err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}
	})
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	for k, d := range v.seen {
		e.golden[k] = d
	}
	data, err := json.MarshalIndent(e.golden, "", " ")
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "perfbench: %s: %d new, %d recorded\n", path, len(v.seen), len(e.golden))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
