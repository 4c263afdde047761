package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"paracrash/internal/exps"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// Job-list sizes. A pass must average over the seed's draw: a generated
// program's cost varies by about a third around the mean, so a posix-gen
// pass holds many programs, and h5-lib's job times cluster with gaps, so
// four slots per cell keep the median out of a gap whatever shapes the
// seed draws. daemon-mix passes are long enough that restarting the daemon
// between them costs little.
const (
	posixGenPrograms = 80 // × 6 backends
	h5LibSlots       = 4  // jobs per (program, backend) cell
	daemonMixRepeats = 40 // jobs per (program, backend) cell
)

// job is one checker job: one program on one backend with one dataset
// shape. key names it for the verdict check, independently of the seed
// that drew it, so a golden digest applies wherever the same job recurs.
type job struct {
	key  string
	fs   string
	prog exps.Program       // paper program (h5-lib, daemon-mix)
	gen  *workloads.Program // generated program (posix-gen)
	h5p  workloads.H5Params
}

// posixGenJobs draws posixGenPrograms random-but-valid 12-op POSIX
// programs (fsync on), each from a seed-derived sub-seed, on every backend.
func posixGenJobs(seed int64) []job {
	r := rand.New(rand.NewSource(seed))
	var jobs []job
	for i := 0; i < posixGenPrograms; i++ {
		sub := r.Int63()
		cfg := workloads.DefaultGenConfig(sub)
		cfg.Ops = 12
		cfg.WithFsync = true
		p := workloads.Generate(cfg)
		for _, fs := range exps.FSNames() {
			jobs = append(jobs, job{key: fmt.Sprintf("gen%d/%s", sub, fs), fs: fs, gen: p})
		}
	}
	return jobs
}

// h5Shapes are the dataset shapes h5-lib draws from. The other
// sensitivity shapes (more clients, larger resizes) exceed MaxLayerOps on
// the parallel programs.
func h5Shapes() []workloads.H5Params {
	def := workloads.DefaultH5Params()
	two := def
	two.PerGroup = 2
	return []workloads.H5Params{def, two}
}

// h5LibJobs lists the seven HDF5/NetCDF programs on every backend,
// h5LibSlots jobs per cell, each job's shape drawn by the seed, in a
// seed-permuted order.
func h5LibJobs(seed int64) []job {
	r := rand.New(rand.NewSource(seed))
	shapes := h5Shapes()
	var jobs []job
	for _, prog := range exps.Programs() {
		if prog.POSIX {
			continue
		}
		for _, fs := range exps.FSNames() {
			for k := 0; k < h5LibSlots; k++ {
				s := r.Intn(len(shapes))
				jobs = append(jobs, job{
					key: fmt.Sprintf("%s/%s/pg%d", prog.Name, fs, shapes[s].PerGroup),
					fs:  fs, prog: prog, h5p: shapes[s],
				})
			}
		}
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// daemonMixJobs lists the four POSIX paper programs on every backend,
// daemonMixRepeats jobs per cell, in a seed-permuted order.
func daemonMixJobs(seed int64) []job {
	r := rand.New(rand.NewSource(seed))
	var jobs []job
	for _, prog := range exps.Programs() {
		if !prog.POSIX {
			continue
		}
		for _, fs := range exps.FSNames() {
			for k := 0; k < daemonMixRepeats; k++ {
				jobs = append(jobs, job{key: prog.Name + "/" + fs, fs: fs, prog: prog,
					h5p: workloads.DefaultH5Params()})
			}
		}
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// stack builds a fresh simulated stack for the job, the way the daemon
// builds one per job: the backend with the paper's deployment and the
// program's placement hints (which GlusterFS takes from GlusterPlacement),
// the workload, and its library adapter (nil for POSIX programs).
func (j job) stack() (pfs.FileSystem, paracrash.Workload, paracrash.Library, error) {
	conf := exps.ConfigFor(j.fs)
	if j.gen != nil {
		fs, err := exps.NewFS(j.fs, conf, trace.NewRecorder())
		return fs, j.gen, nil, err
	}
	placement := j.prog.Placement
	if j.fs == "glusterfs" {
		placement = j.prog.GlusterPlacement
	}
	if placement != nil {
		conf.FilePlacement = map[string]int{}
		for k, v := range placement {
			conf.FilePlacement[k] = v
		}
	}
	fs, err := exps.NewFS(j.fs, conf, trace.NewRecorder())
	w, lib := j.prog.Make(j.h5p)
	return fs, w, lib, err
}

// kernelDigest condenses a report's verdict content (exps.ReportKernel)
// into the short digest the verdict check compares.
func kernelDigest(rep *paracrash.Report) string {
	sum := sha256.Sum256([]byte(exps.ReportKernel(rep)))
	return hex.EncodeToString(sum[:8])
}
