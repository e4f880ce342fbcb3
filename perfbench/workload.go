package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/abft"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/fti"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// workload is one benchmark input: the linear system, the solver, the
// checkpoint stack, and the failure process.
type workload struct {
	name   string
	why    string
	method string // "jacobi" or "pcg" (IC0-preconditioned CG)
	grid   int    // Poisson3D grid edge: grid³ unknowns
	rtol   float64
	scheme core.Scheme
	async  bool
	shards int
	// tiered wraps the operator in the Huang–Abraham checksum operator,
	// arms an exact-state ABFT guard, recovers through RecoverTiered,
	// and mixes plain process losses (the ABFT tier's) with losses whose
	// retained ABFT state is corrupted too (the checkpoint tier's).
	tiered bool
	// mtti is the mean number of executed iterations between failures.
	mtti float64
	// interval is the checkpoint interval in iterations: the Young
	// interval √(2·C·MTTI) for the checkpoint cost C and per-iteration
	// time measured by -calibrate, frozen here. The async workload
	// floors it at the background encode+write time, as cmd/solve does,
	// measured while the solver steps: the two share the cores, and an
	// interval below that time turns the hidden cost back into stall.
	interval int
	// horizon, in checkpoint intervals, is where a plan switches from a
	// Poisson count of uniformly placed failures to exponential gaps
	// (see makePlans); about the length of a solve with its failures.
	horizon int
	// solvesPerSecond sizes a run's plan set: one solve per plan, and
	// seconds × solvesPerSecond plans (calibrated so a run of the
	// untraced plan set lasts about --seconds on the reference host).
	solvesPerSecond float64
}

var workloads = []workload{
	{
		name:            "jacobi-lossy",
		why:             "kernel-bound, cache-resident Jacobi; lossy restarts add replay but almost no N'",
		method:          "jacobi",
		grid:            32,
		rtol:            1e-5,
		scheme:          core.Lossy,
		mtti:            850,
		interval:        63,
		horizon:         41,
		solvesPerSecond: 0.3,
	},
	{
		name:            "pcg-lossy",
		why:             "SZ encode and write on the critical path; each lossy restart costs CG its Krylov history",
		method:          "pcg",
		grid:            64,
		rtol:            1e-7,
		scheme:          core.Lossy,
		mtti:            35,
		interval:        7,
		horizon:         18,
		solvesPerSecond: 0.7,
	},
	{
		name:            "pcg-lossless-async",
		why:             "flate off the critical path, 8 sharded writes, ABFT and checkpoint recovery tiers",
		method:          "pcg",
		grid:            64,
		rtol:            1e-7,
		scheme:          core.Lossless,
		async:           true,
		shards:          8,
		tiered:          true,
		mtti:            22,
		interval:        10,
		horizon:         7,
		solvesPerSecond: 0.65,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// errorBound is the SZ pointwise-relative bound of the lossy workloads.
const errorBound = 1e-4

// setupTimes splits one stack build into its stages, in seconds.
type setupTimes struct {
	matrix, precond, guard, storage, total float64
}

// stack is one fully wired solve: the same public constructors
// cmd/solve wires, sparse → precond/abft → solver → core.Manager →
// fti encoder → fti.Resilient over an fsck'd fti.DirStorage.
type stack struct {
	a     *sparse.CSR
	b     []float64
	co    *abft.ChecksumOperator
	slv   solver.Checkpointable
	guard *abft.Guard
	res   *fti.Resilient
	mgr   *core.Manager
	setup setupTimes
}

// buildSystem makes the matrix and right-hand side.
func buildSystem(w workload) (*sparse.CSR, []float64) {
	return sparse.Poisson3D(w.grid), sparse.OnesRHS(w.grid * w.grid * w.grid)
}

// buildStack wires one solve. dir must be a fresh directory; with
// withManager false only the solver is built (the reference solve).
// A non-nil tracer installs the timing wrappers.
func buildStack(w workload, dir string, seed int64, withManager bool, tr *tracer) (*stack, error) {
	st := &stack{}
	t0 := time.Now()
	st.a, st.b = buildSystem(w)
	t1 := time.Now()
	st.setup.matrix = t1.Sub(t0).Seconds()

	opts := solver.Options{RTol: w.rtol, MaxIter: maxIterations(w)}
	var err error
	switch w.method {
	case "jacobi":
		st.slv, err = solver.NewStationary(solver.KindJacobi, st.a, st.b, nil, 0, opts)
		if err != nil {
			return nil, err
		}
	case "pcg":
		var op solver.Operator = st.a
		if w.tiered {
			g0 := time.Now()
			st.co = abft.NewChecksumOperator(st.a)
			op = st.co
			st.setup.guard += time.Since(g0).Seconds()
		}
		p0 := time.Now()
		ic, err := precond.NewIC0(st.a)
		if err != nil {
			return nil, err
		}
		st.setup.precond = time.Since(p0).Seconds()
		var pc precond.Interface = ic
		var space solver.Space = solver.SeqSpace{}
		if tr != nil {
			op = tracedOperator{op, tr}
			pc = tracedPrecond{pc, tr}
			space = tracedSpace{space, tr}
		}
		st.slv = solver.NewCG(op, pc, st.b, nil, space, opts)
	default:
		return nil, fmt.Errorf("unknown method %q", w.method)
	}
	if !withManager {
		st.setup.total = time.Since(t0).Seconds()
		return st, nil
	}

	if w.tiered {
		g0 := time.Now()
		st.guard, err = abft.NewGuard(st.a, st.b, st.slv, abft.Config{Method: abft.ExactState, Seed: seed})
		if err != nil {
			return nil, err
		}
		st.setup.guard += time.Since(g0).Seconds()
	}

	s0 := time.Now()
	base, err := fti.NewDirStorage(dir)
	if err != nil {
		return nil, err
	}
	if _, err := fti.Fsck(base); err != nil {
		return nil, fmt.Errorf("fsck %s: %w", dir, err)
	}
	st.res = fti.NewResilient(base, fti.FaultPolicy{Seed: seed})
	var storage fti.Storage = st.res
	st.setup.storage = time.Since(s0).Seconds()

	cfg := core.Config{
		Scheme:   w.scheme,
		Interval: w.interval,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: errorBound},
		Async:    w.async,
		Shards:   w.shards,
		ABFT:     st.guard,
	}
	if tr != nil {
		if storage, err = newTracedStorage(storage, tr); err != nil {
			return nil, err
		}
		switch w.scheme {
		case core.Lossy:
			cfg.LossyEncoder, err = newTracedEncoder(fti.SZ{Params: cfg.SZParams}, tr)
		case core.Lossless:
			cfg.Codec, err = newTracedCodec(codec.BlockedFlate{}, tr)
		}
		if err != nil {
			return nil, err
		}
	}
	st.mgr, err = core.NewManager(cfg, storage, st.slv)
	if err != nil {
		return nil, err
	}
	st.setup.total = time.Since(t0).Seconds()
	return st, nil
}

// maxIterations caps a solve far above anything a converging run
// needs; hitting it fails the correctness gate.
func maxIterations(w workload) int {
	if w.method == "jacobi" {
		return 40000
	}
	return 4000
}

// workingSetBytes is the solve's resident data: the CSR matrix, the
// IC0 factor for PCG, and the solver's vectors.
func workingSetBytes(w workload, a *sparse.CSR) int64 {
	n, nnz := int64(a.Rows), int64(a.NNZ())
	csr := 16*nnz + 8*(n+1)
	if w.method == "jacobi" {
		return csr + 6*8*n // b, x, xNew, r, diag + the checkpoint copy
	}
	lower := (nnz + n) / 2
	return csr + 16*lower + 8*(n+1) + 6*8*n // A, L, and b, x, r, z, p, q
}

// hostCache returns a /sys cache size for cpu0 (index 2 is L2, index 3
// is L3), or "unknown".
func hostCache(index int) string {
	b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", index))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
