// Command solve runs one fault-tolerant iterative solve end to end:
// it builds a 3D Poisson system, solves it with the chosen method and
// checkpointing scheme, optionally injecting failures, and reports the
// outcome. README.md documents every flag.
//
// Usage:
//
//	solve -method cg -grid 16 -scheme lossy -eb 1e-4 -mtti 300
//	solve -method cg -grid 16 -scheme lossy -mtti 300 -async -shards 8 -storage-workers 4
//	solve -method jacobi -grid 12 -scheme lossy -mtti 300 -adaptive -prior-mtti 3600
//	solve -method cg -grid 16 -recovery-tiers -inject 'proc@50,abft+proc@120'
//
// By default the simulator runs the solve on a virtual clock:
// failures arrive with mean time -mtti, and every checkpoint and
// recovery is priced by the Bebop cluster model at 2,048 ranks.
// -interval is in simulated seconds (0 = Young-optimal from a probe
// checkpoint); -adaptive re-plans it online from the run's measured
// costs and failures, seeded only by -prior-mtti. -recovery-tiers arms
// the recovery chain: checkpoint-free ABFT reconstruction, the latest
// checkpoint, an older one, then restart-from-zero.
//
// -inject runs the REAL solve on the wall clock under a seeded fault
// plan and prints the tier each recovery used:
//
//	spec  := event ("," event)*
//	event := kind ("+" kind)* "@" iterspec
//	kind  := proc | abft | shard | manifest | midckpt
//	       | storagewrite | storageread | slowio | crash
//	iterspec := N | N..M | N..M/S
//
// Corruption kinds without proc/midckpt are latent and surface at the
// next recovery; the storage kinds arm faults beneath the retry layer.
// -inject requires -recovery-tiers and excludes -mtti and -adaptive:
// it checkpoints every -interval iterations (default 25), a cadence
// the controller does not plan.
//
// -shards N splits every checkpoint into N shard objects plus a
// manifest, written by up to -storage-workers goroutines (0 =
// GOMAXPROCS, never more than the shards; the run prints the pool size
// it used). Passing -shards at all, 1 included, prices writes with the
// single-writer striped-PFS model instead of the paper's collective
// one, so compare -shards runs with each other.
//
// Every exit — success, setup error, -scheme none, simulated or
// injected — prints the per-phase cost table (modeled vs measured) and
// a metrics summary, and writes the requested -metrics-out, -trace-out
// and -report-out artifacts. -debug-addr serves /metrics, /trace,
// /report and /debug/pprof while the run is live.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/abft"
	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/precond"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// options holds one run's configuration: every flag, bound directly.
type options struct {
	method, scheme, ckptDir, inject string
	grid, maxIter                   int
	rtol, eb, interval, mtti, tit   float64
	seed                            int64
	async, adaptive, recoveryTiers  bool
	priorMTTI                       float64

	shards, storageWorkers, storageRetries int
	storageTimeout, scrubInterval          time.Duration
	storageFaultRate                       float64
	// striped: -shards was given (1 included), so writes are priced
	// with the single-writer striped model.
	striped bool

	debugAddr, metricsOut, traceOut, reportOut string
	quality, qualityExhaustive                 bool
	qualitySample                              int

	command string // the arguments, recorded in the run report
}

// parseOptions binds the command line into options.
func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.StringVar(&o.method, "method", "cg", "iterative method: jacobi | gs | sor | ssor | cg | gmres")
	fs.IntVar(&o.grid, "grid", 14, "Poisson grid dimension (n³ unknowns)")
	fs.Float64Var(&o.rtol, "rtol", 1e-7, "relative convergence tolerance")
	fs.StringVar(&o.scheme, "scheme", "lossy", "checkpoint scheme: traditional | lossless | lossy | none")
	fs.Float64Var(&o.eb, "eb", 1e-4, "lossy pointwise-relative error bound")
	fs.Float64Var(&o.interval, "interval", 0, "checkpoint interval in simulated seconds (0 = Young-optimal)")
	fs.Float64Var(&o.mtti, "mtti", 0, "mean time to interruption in simulated seconds (0 = no failures)")
	fs.Float64Var(&o.tit, "tit", 1, "simulated seconds per iteration")
	fs.Int64Var(&o.seed, "seed", 1, "failure-injection seed")
	fs.StringVar(&o.ckptDir, "ckptdir", "", "write checkpoints to this directory (default: in-memory)")
	fs.IntVar(&o.maxIter, "maxiter", 2_000_000, "iteration cap")
	fs.BoolVar(&o.async, "async", false, "asynchronous checkpointing: charge only the capture stall; encode+write overlap iterations")
	fs.IntVar(&o.shards, "shards", 1, "shard objects per checkpoint (>1 writes shards + a manifest; passing the flag at all prices writes with the single-writer striped-PFS model)")
	fs.IntVar(&o.storageWorkers, "storage-workers", 0, "worker pool bound for shard writes/reads (0 = GOMAXPROCS)")
	fs.IntVar(&o.storageRetries, "storage-retries", 4, "max retries per storage op for transient faults (0 disables the resilient wrapper)")
	fs.DurationVar(&o.storageTimeout, "storage-timeout", 0, "per-op retry budget: an op gives up once its cumulative backoff would exceed this (0 = no budget)")
	fs.DurationVar(&o.scrubInterval, "scrub-interval", 0, "background scrubber sweep cadence (0 = scrubbing off)")
	fs.Float64Var(&o.storageFaultRate, "storage-fault-rate", 0, "seeded per-attempt transient storage-fault probability, injected beneath the retry layer (0 = none)")
	fs.BoolVar(&o.adaptive, "adaptive", false, "adaptive checkpoint interval: estimate costs and failure rate online, re-plan the Young/Daly fixed point each epoch")
	fs.Float64Var(&o.priorMTTI, "prior-mtti", 3600, "adaptive controller's prior mean time to interruption in seconds (its only a-priori knowledge)")
	fs.BoolVar(&o.recoveryTiers, "recovery-tiers", false, "tiered recovery: ABFT reconstruction, then latest checkpoint, then older checkpoints, then restart-from-zero")
	fs.StringVar(&o.inject, "inject", "", "seeded fault plan 'kind(+kind)*@iterspec,...' (kinds proc|abft|shard|manifest|midckpt|storagewrite|storageread|slowio|crash; iterspec N or N..M[/S]) driving the real solve; requires -recovery-tiers, excludes -mtti and -adaptive")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /trace, /report, and /debug/pprof on this address (e.g. localhost:6060) while the run is live")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the end-of-run metrics snapshot as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the end-of-run Chrome trace_event JSON to this file")
	fs.BoolVar(&o.quality, "quality", false, "numerical telemetry: audit per-checkpoint distortion against the live state (sampled) and attribute post-recovery convergence delay")
	fs.IntVar(&o.qualitySample, "quality-sample", 4, "audit every Nth committed checkpoint (1 = every checkpoint)")
	fs.BoolVar(&o.qualityExhaustive, "quality-exhaustive", false, "audit every checkpoint and decode-verify every audited vector (implies -quality)")
	fs.StringVar(&o.reportOut, "report-out", "", "write the versioned JSON run report (cost table, metrics, per-checkpoint quality, recovery attributions, stability verdict) to this file (implies -quality)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	fs.Visit(func(f *flag.Flag) { o.striped = o.striped || f.Name == "shards" })
	o.quality = o.quality || o.qualityExhaustive || o.reportOut != ""
	o.command = strings.Join(args, " ")
	return o, nil
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and usage
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "solve:", err)
		os.Exit(1)
	}
}

func run(o options) (err error) {
	// One registry + tracer pair backs the live endpoint and the
	// end-of-run artifacts; left nil (zero overhead) unless asked for.
	rep := &reporter{o: o, start: time.Now()}
	if o.debugAddr != "" || o.metricsOut != "" || o.traceOut != "" || o.quality {
		rep.reg, rep.tr = obs.New(), obs.NewTracer()
	}
	rep.runInfo = quality.RunInfo{
		Command:    o.command,
		Solver:     o.method,
		Unknowns:   o.grid * o.grid * o.grid,
		Scheme:     o.scheme,
		Async:      o.async,
		Shards:     o.shards,
		ErrorBound: o.eb,
		Adaptive:   o.adaptive,
		Injected:   o.inject,
	}
	if o.debugAddr != "" {
		serveDebug(o.debugAddr, rep)
	}
	// Every exit — setup error, -scheme none, simulated or injected —
	// reports through this one emit, the disposition recorded first.
	defer func() {
		if err != nil {
			rep.locked(func() { rep.runInfo.Exit = "error: " + err.Error() })
		}
		rep.emit()
	}()

	if o.adaptive && o.interval > 0 {
		return fmt.Errorf("-adaptive and -interval are mutually exclusive (the controller owns the cadence)")
	}
	if o.inject != "" && !o.recoveryTiers {
		return fmt.Errorf("-inject requires -recovery-tiers (the fault plan exercises the tier chain)")
	}
	if o.inject != "" && o.mtti > 0 {
		return fmt.Errorf("-inject and -mtti are mutually exclusive (seeded plan vs random virtual-time failures)")
	}
	if o.inject != "" && o.adaptive {
		return fmt.Errorf("-inject and -adaptive are mutually exclusive (the injected run checkpoints every -interval iterations, a cadence the controller does not plan)")
	}
	if o.recoveryTiers && o.scheme == "none" {
		return fmt.Errorf("-recovery-tiers needs a checkpoint scheme (the chain's middle tiers read checkpoints)")
	}
	a := sparse.Poisson3D(o.grid)
	b := sparse.OnesRHS(a.Rows)
	fmt.Printf("system: 3D Poisson %d³ = %d unknowns, %d nonzeros\n", o.grid, a.Rows, a.NNZ())

	var s solver.Checkpointable
	var co *abft.ChecksumOperator
	opts := solver.Options{RTol: o.rtol}
	// The stationary sweeps and their relaxation factors.
	sweep, stationary := map[string]struct {
		kind  solver.StationaryKind
		omega float64
	}{"jacobi": {solver.KindJacobi, 0}, "gs": {solver.KindGaussSeidel, 0},
		"sor": {solver.KindSOR, 1.5}, "ssor": {solver.KindSSOR, 1.2}}[o.method]
	switch {
	case stationary:
		s, err = solver.NewStationary(sweep.kind, a, b, nil, sweep.omega, opts)
	case o.method == "cg":
		var m *precond.IC0
		m, err = precond.NewIC0(a)
		if err != nil {
			return err
		}
		op := solver.Operator(a)
		if o.recoveryTiers {
			// Huang–Abraham checksum augmentation: every operator
			// application is verified against precomputed column sums, so
			// silent corruption surfaces before it contaminates the
			// retained ABFT redundancy.
			co = abft.NewChecksumOperator(a)
			op = co
		}
		s = solver.NewCG(op, m, b, nil, solver.SeqSpace{}, opts)
	case o.method == "gmres":
		s = solver.NewGMRES(a, nil, b, nil, 30, solver.SeqSpace{}, opts)
	default:
		return fmt.Errorf("unknown method %q", o.method)
	}
	if err != nil {
		return err
	}
	var guard *abft.Guard
	if o.recoveryTiers {
		gcfg := abft.Config{Seed: o.seed, Method: abft.BackwardForward}
		if o.method == "cg" {
			gcfg.Method = abft.ExactState
		} else if !stationary {
			return fmt.Errorf("-recovery-tiers is not supported for method %q (need cg or a stationary method)", o.method)
		}
		guard, err = abft.NewGuard(a, b, s, gcfg)
		if err != nil {
			return err
		}
		fmt.Printf("recovery tiers armed: %s ABFT guard, %d logical ranks\n", guard.Method(), guard.Ranks())
	}

	if o.scheme == "none" {
		res, err := solver.RunToConvergence(s, solver.Options{MaxIter: o.maxIter}, nil)
		if err != nil {
			return err
		}
		rep.finish(res.Iterations, res.Converged, res.FinalResidual)
		fmt.Printf("converged=%v iterations=%d residual=%.3e\n",
			res.Converged, res.Iterations, res.FinalResidual)
		return nil
	}
	scheme, ok := map[string]core.Scheme{"traditional": core.Traditional, "lossless": core.Lossless, "lossy": core.Lossy}[o.scheme]
	if !ok {
		return fmt.Errorf("unknown scheme %q", o.scheme)
	}

	var plan *failure.Plan
	if o.inject != "" {
		plan, err = failure.ParsePlan(o.inject, o.seed)
		if err != nil {
			return err
		}
	}
	st, err := buildStorage(o, plan, rep.reg, rep.tr)
	if err != nil {
		return err
	}
	rep.storage = st
	mgr, err := core.NewManager(core.Config{
		Scheme:         scheme,
		SZParams:       sz.Params{Mode: sz.PWRel, ErrorBound: o.eb},
		Shards:         o.shards,
		StorageWorkers: o.storageWorkers,
		ABFT:           guard,
		// Under an injected-fault campaign a save that exhausts its
		// retries degrades — the group fails, the counter bumps, and the
		// solver keeps iterating toward the next interval — instead of
		// killing the run.
		DegradedWrites: st.injector != nil,
		// The simulator needs a synchronous Manager (it prices the async
		// overlap itself); the real injected run uses the actual async
		// pipeline so its overlap shows up on the trace's wall clocks.
		Async: o.async && o.inject != "",
	}, st.top, s)
	if err != nil {
		return err
	}
	rep.mgr = mgr
	if st.scrubber != nil {
		mgr.Checkpointer().AttachScrubber(st.scrubber)
		if err := st.scrubber.Start(o.scrubInterval); err != nil {
			return err
		}
		// Stops before the deferred emit, so the storage accounting
		// counts the final sweep.
		defer st.scrubber.Stop()
	}
	// A real (injected) run's pipeline emits wall-clock spans itself;
	// in virtual time the simulator owns the trace (same span schema)
	// and the Manager only exports metrics.
	mtr := rep.tr
	if o.inject == "" {
		mtr = nil
	}
	mgr.Instrument(rep.reg, mtr)
	// Numerical telemetry: the auditor is a pure observer (sampled
	// decode-on-the-fly distortion audits, recovery-delay attribution),
	// so arming it never perturbs the solve trajectory.
	var qa *quality.Auditor
	if o.quality {
		qa = quality.New(quality.Config{
			SampleEvery: o.qualitySample,
			Exhaustive:  o.qualityExhaustive,
			BNorm:       math.Sqrt(float64(a.Rows)), // ‖b‖ of the all-ones right-hand side
			StabilityC:  1,
		})
		qa.Instrument(rep.reg, rep.tr)
		mgr.InstrumentQuality(qa)
		rep.locked(func() { rep.qa = qa })
		every, mode := max(o.qualitySample, 1), "encode-path stats"
		if o.qualityExhaustive {
			every, mode = 1, "exhaustive decode verification"
		}
		fmt.Printf("quality telemetry: auditing every %d committed checkpoint(s), %s\n", every, mode)
	}
	if err := core.RegisterStatics(mgr.Checkpointer(), a, b); err != nil {
		return err
	}

	p := &prices{o: o, mdl: cluster.Bebop(), scheme: scheme, raw: float64(a.Rows) * 8}
	rep.prices = p
	x0 := make([]float64, a.Rows)
	if o.inject != "" {
		ckptEvery := int(o.interval)
		if ckptEvery <= 0 {
			ckptEvery = 25
		}
		rep.locked(func() { rep.runInfo.Interval = ckptEvery })
		return runInjected(o, ckptEvery, s, x0, mgr, guard, co, plan, st, p, rep)
	}
	return runSimulated(o, s, x0, mgr, p, qa, rep)
}

// runSimulated drives the solve on the simulator's virtual clock, with
// failures drawn from -mtti and every checkpoint and recovery priced
// by the cluster model.
func runSimulated(o options, s solver.Checkpointable, x0 []float64, mgr *core.Manager, p *prices, qa *quality.Auditor, rep *reporter) error {
	interval := o.interval
	var ctrl *adapt.Controller
	if o.adaptive {
		// The controller learns C, R, and λ from the run itself; the
		// prior MTTI is its only seed. It plans the async fixed point
		// (AsyncEffectiveStall) when the pipeline is overlapped.
		var err error
		ctrl, err = adapt.New(adapt.Config{PriorMTTI: o.priorMTTI, Async: o.async})
		if err != nil {
			return err
		}
		fmt.Printf("adaptive interval: prior MTTI %.0f s, bootstrap interval %.0f s\n",
			o.priorMTTI, ctrl.Interval(0))
	} else if interval == 0 {
		probe, err := mgr.Checkpoint()
		if err != nil {
			return err
		}
		// Young's interval balances the failure rate against the cost
		// the solver pays per checkpoint: the full write in sync mode,
		// the capture stall in async mode — floored at the background
		// encode+write time, since checkpointing faster than the
		// pipeline drains only turns hidden cost into backpressure.
		perCkpt := p.checkpoint(probe)
		if o.async {
			perCkpt = p.capture(probe)
		}
		interval = model.YoungInterval(o.mtti, perCkpt)
		if o.async && interval < p.checkpoint(probe) {
			interval = p.checkpoint(probe)
		}
		if interval == 0 {
			interval = 100 * o.tit
		}
		fmt.Printf("Young-optimal interval: %.0f simulated seconds\n", interval)
	}

	out, err := sim.Run(sim.Config{
		Stepper:             s,
		Manager:             mgr,
		X0:                  x0,
		TitSeconds:          o.tit,
		IntervalSeconds:     interval,
		Controller:          ctrl,
		CheckpointSeconds:   p.checkpoint,
		RecoverySeconds:     p.restart,
		StorageRetrySeconds: p.retry,
		AsyncCheckpoint:     o.async,
		CaptureSeconds:      p.capture,
		ABFTSeconds:         p.abft,
		Failures:            failure.NewInjector(o.mtti, o.seed),
		MaxIterations:       o.maxIter,
		Metrics:             rep.reg,
		Tracer:              rep.tr,
		Quality:             qa,
	})
	if err != nil {
		return err
	}
	rep.locked(func() { rep.runInfo.Interval = int(interval) })
	rep.finish(out.IterationsExecuted, out.Converged, out.FinalResidual)
	fmt.Printf("converged=%v iterations=%d sim-time=%.0fs failures=%d checkpoints=%d\n",
		out.Converged, out.IterationsExecuted, out.SimSeconds, out.Failures, out.Checkpoints)
	fmt.Printf("checkpoint-time=%.1fs recovery-time=%.0fs final-residual=%.3e\n",
		out.CheckpointTime, out.RecoveryTime, out.FinalResidual)
	if o.recoveryTiers {
		fmt.Printf("recovery tiers: abft=%d checkpoint-restart=%d restart-zero=%d pfs-read-bytes=%d\n",
			out.ABFTRecoveries, out.CheckpointRestarts, out.FreshRestarts, out.RecoveryReadBytes)
	}
	if o.async {
		fmt.Printf("async: aborted-in-flight=%d backpressure=%.1fs (stall is capture-only when 0)\n",
			out.AbortedCheckpoints, out.BackpressureTime)
	}
	if o.storageFaultRate > 0 {
		fmt.Printf("storage faults: rate=%.3g priced retry delay %.2fs across %d checkpoints\n",
			o.storageFaultRate, out.StorageRetryTime, out.Checkpoints)
	}
	if o.adaptive && len(out.IntervalPlans) > 0 {
		plans := out.IntervalPlans
		last := plans[len(plans)-1]
		fmt.Printf("adaptive: %d re-plans; final interval %.0f s (estimated MTTI %.0f s, per-checkpoint cost %.2f s)\n",
			len(plans), last.Interval, 1/last.Lambda, last.Cost)
		fmt.Printf("interval trajectory (sim-time  interval  est-MTTI  est-cost  est-ratio):\n")
		step := (len(plans) + 11) / 12 // at most ~12 rows plus the final one
		for i := 0; i < len(plans); i += step {
			p := plans[i]
			fmt.Printf("  %8.0fs %8.0fs %8.0fs %8.2fs %8.1fx\n", p.When, p.Interval, 1/p.Lambda, p.Cost, p.Ratio)
		}
		if (len(plans)-1)%step != 0 {
			fmt.Printf("  %8.0fs %8.0fs %8.0fs %8.2fs %8.1fx\n", last.When, last.Interval, 1/last.Lambda, last.Cost, last.Ratio)
		}
	}
	if info := mgr.LastInfo(); info.Bytes > 0 {
		fmt.Printf("last checkpoint: %d bytes (ratio %.1fx, encoder %s)\n",
			info.Bytes, info.CompressionRatio, info.EncoderName)
		if info.Shards > 1 {
			workers := o.storageWorkers
			if workers <= 0 {
				workers = parallel.Workers()
			}
			fmt.Printf("sharded: %d shard objects + manifest, %d storage workers, striped write bandwidth %.2f GB/s\n",
				info.Shards, min(workers, info.Shards), p.mdl.StripedWriteBandwidth(info.Shards)/1e9)
		}
	}
	// On failure-injected runs, measure one real restart so the
	// in-process R (streaming shard-parallel restore) can be compared
	// against the modeled ShardedRecoverySeconds at cluster scale.
	if o.mtti > 0 && mgr.HasCheckpoint() {
		info := mgr.LastInfo()
		// Detach the auditor first: the measurement is not a failure, so
		// it must not add a recovery-attribution entry to the report.
		mgr.InstrumentQuality(nil)
		start := time.Now()
		it, err := mgr.Recover()
		if err != nil {
			return fmt.Errorf("restart measurement: %w", err)
		}
		wall := time.Since(start).Seconds()
		rep.measuredRestart = wall
		fmt.Printf("restart: measured %.2f ms wall for %d encoded bytes (%.1f MB/s, rolled back to iteration %d)\n",
			1e3*wall, info.Bytes, float64(info.Bytes)/wall/1e6, it)
		fmt.Printf("restart: modeled R=%.2fs at 2048 ranks (%d shard objects)\n",
			p.restart(info), max(info.Shards, 1))
	}
	return nil
}

// storageChain is the checkpoint store, bottom up: the directory
// store (fsck-swept at startup) or memory, the fault injector when a
// campaign or plan needs one, the retry wrapper that absorbs injected
// transient faults, and the scrubber over the top.
type storageChain struct {
	// base is beneath the injector and retries: corruptions land there
	// (they must neither consume armed faults nor be retried), and the
	// post-crash fsck sweeps the debris where the crash left it.
	base      fti.Storage
	top       fti.Storage // what the Manager writes through
	injector  *failure.StorageInjector
	resilient *fti.Resilient
	scrubber  *fti.Scrubber // built, not started
}

func buildStorage(o options, plan *failure.Plan, reg *obs.Registry, tr *obs.Tracer) (*storageChain, error) {
	c := &storageChain{base: fti.NewMemStorage()}
	if o.ckptDir != "" {
		ds, err := fti.NewDirStorage(o.ckptDir)
		if err != nil {
			return nil, err
		}
		// Crash-consistency sweep: a previous run may have died
		// mid-commit, leaving temp files, orphan shards, or manifest-less
		// groups. Fsck GCs them so List only exposes fully committed
		// checkpoints.
		frep, err := fti.Fsck(ds)
		if err != nil {
			return nil, fmt.Errorf("fsck %s: %w", o.ckptDir, err)
		}
		if !frep.Clean() {
			fmt.Println(frep)
		}
		c.base = ds
	}
	c.top = c.base
	if o.storageFaultRate > 0 || plan.ArmsStorage() {
		c.injector = failure.NewStorageInjector(c.top, o.seed, failure.StorageProfile{Rate: o.storageFaultRate})
		c.top = c.injector
	}
	if o.storageRetries > 0 {
		c.resilient = fti.NewResilient(c.top, fti.FaultPolicy{MaxRetries: o.storageRetries, OpBudget: o.storageTimeout, Seed: o.seed})
		c.resilient.Instrument(reg)
		c.top = c.resilient
	}
	if o.scrubInterval > 0 {
		c.scrubber = fti.NewScrubber(c.top)
		c.scrubber.Instrument(reg, tr)
	}
	return c, nil
}

// printStats reports what each armed layer of the chain absorbed.
func (c *storageChain) printStats() {
	if c.scrubber != nil {
		ss := c.scrubber.Stats()
		fmt.Printf("scrubber: sweeps=%d verified=%d corruptions=%d repairs=%d dropped=%d\n",
			ss.Sweeps, ss.Verified, ss.Corruptions, ss.Repairs, ss.Dropped)
	}
	if c.resilient != nil {
		rs := c.resilient.Stats()
		if rs.Retries > 0 || rs.Exhausted > 0 || rs.Permanent > 0 || rs.HedgedReads > 0 {
			fmt.Printf("storage resilience: ops=%d retries=%d recovered=%d exhausted=%d permanent=%d hedged-reads=%d hedge-wins=%d backoff=%.1fms\n",
				rs.Ops, rs.Retries, rs.Recovered, rs.Exhausted, rs.Permanent, rs.HedgedReads, rs.HedgeWins, 1e3*rs.RetryDelay.Seconds())
		}
	}
	if c.injector != nil {
		is := c.injector.Stats()
		fmt.Printf("storage injection: write-faults=%d read-faults=%d transient=%d permanent=%d slow=%d\n",
			is.WriteFaults, is.ReadFaults, is.TransientFaults, is.PermanentFaults, is.SlowOps)
	}
}

// prices costs checkpoints, restarts and ABFT recoveries with the
// Bebop model at 2,048 processes — so the Young-optimal interval is
// meaningful — for one run's scheme and storage layout.
type prices struct {
	o      options
	mdl    *cluster.Model
	scheme core.Scheme
	raw    float64 // bytes of one solver vector
}

// shardsOf is the shard count a checkpoint was written with; a save
// that committed nothing has the configured layout.
func (p *prices) shardsOf(info fti.Info) int {
	if info.Shards < 1 {
		return p.o.shards
	}
	return info.Shards
}

// checkpoint prices one write; under -shards (1 included) with the
// single-writer striped model, engaging min(shards, stripes) stripes.
func (p *prices) checkpoint(info fti.Info) float64 {
	if p.o.striped {
		return p.mdl.ShardedCheckpointSeconds(2048, float64(info.Bytes), p.raw, p.scheme, p.shardsOf(info))
	}
	return p.mdl.CheckpointSeconds(2048, float64(info.Bytes), p.raw, p.scheme)
}

// restart prices one restore like the write path: a sharded group
// streams through min(shards, stripes) concurrent reads overlapped
// with decompression; one shard is the serial monolithic restore.
func (p *prices) restart(info fti.Info) float64 {
	if p.o.striped {
		return p.mdl.ShardedRecoverySeconds(2048, float64(info.Bytes), p.raw, p.scheme, p.shardsOf(info))
	}
	return p.mdl.RecoverySeconds(2048, float64(info.Bytes), p.raw, p.scheme)
}

// capture prices the solver-visible stall of one async checkpoint.
func (p *prices) capture(info fti.Info) float64 {
	return p.mdl.CaptureSeconds(2048, float64(info.RawBytes))
}

// retry prices the retry layer's expected backoff delay per write
// under a -storage-fault-rate campaign, calibrated from the same
// policy defaults the real wrapper runs with.
func (p *prices) retry(info fti.Info) float64 {
	if p.o.storageFaultRate <= 0 || p.o.storageRetries <= 0 {
		return 0
	}
	pol := fti.FaultPolicy{MaxRetries: p.o.storageRetries}.Normalize()
	return p.mdl.StorageRetrySeconds(p.shardsOf(info), p.o.storageFaultRate,
		pol.BaseDelay.Seconds(), pol.MaxDelay.Seconds(), pol.MaxRetries)
}

// abft prices one ABFT tier attempt in local-solve iterations over the
// lost block, re-gathered over the interconnect — never through the
// PFS.
func (p *prices) abft(att core.TierAttempt) float64 {
	return p.mdl.ABFTRecoverySeconds(p.raw/2048, att.Iterations, p.o.tit)
}

// costTable renders the per-phase checkpoint/restart cost table: the
// cluster model's 2,048-rank prediction next to what the in-process
// run actually measured (fti.Info stage timings and the measured
// restart; 0 = not measured). The two columns are different machines
// by design — the point is seeing each phase's model beside a real
// measurement of the same code path. The same rows are the run
// report's cost lines.
func (p *prices) costTable(info fti.Info, measuredRestart float64) []quality.CostLine {
	if info.Bytes == 0 {
		return nil // no checkpoint was ever committed; nothing to break down
	}
	// The stage helpers share the fused cost model's terms, so the
	// per-phase rows always sum to the checkpoint price the run used:
	// the codec-aware encode rate is pinned to the scheme-level
	// calibration for the schemes' default codecs (sz, gzip) and falls
	// back to it for codecs without a CodecRates entry.
	rows := []quality.CostLine{
		{Phase: "capture", ModeledSeconds: p.mdl.CaptureSeconds(2048, p.raw), MeasuredSeconds: info.CaptureSeconds},
		{Phase: "encode", ModeledSeconds: p.mdl.CodecCompressSeconds(2048, p.raw, info.EncoderName, p.scheme), MeasuredSeconds: info.EncodeSeconds},
		{Phase: "write", ModeledSeconds: p.mdl.WriteStageSeconds(2048, float64(info.Bytes), max(info.Shards, 1), p.o.striped), MeasuredSeconds: info.WriteSeconds},
		{Phase: "restart", ModeledSeconds: p.restart(info), MeasuredSeconds: measuredRestart},
	}
	notes := []string{"   (in-process sync capture happens inside the save)", "", "", "   (measured only on failure runs)"}
	fmt.Printf("per-checkpoint phase costs — modeled at 2048 ranks vs measured in-process (ms):\n")
	fmt.Printf("  %-8s %12s %12s\n", "phase", "modeled", "measured")
	for i, r := range rows {
		measured := "      -"
		if r.MeasuredSeconds != 0 {
			measured = fmt.Sprintf("%10.4g", 1e3*r.MeasuredSeconds)
		}
		fmt.Printf("  %-8s %12s %12s%s\n", r.Phase, fmt.Sprintf("%10.4g", 1e3*r.ModeledSeconds), measured, notes[i])
		if r.Phase == "encode" && p.scheme != core.Traditional && info.EncodeSeconds > 0 {
			// Measured per-codec encode throughput beside the model's
			// per-core rate: the in-process figure is this machine's
			// cores, the modeled one is one Bebop core.
			fmt.Printf("  %-8s %12.4g %12.4g   (encode MB/s, codec %s; modeled is per Bebop core)\n", "enc-MB/s",
				p.raw/p.mdl.CodecCompressSeconds(1, p.raw, info.EncoderName, p.scheme)/1e6, p.raw/info.EncodeSeconds/1e6, info.EncoderName)
		}
	}
	return rows
}

// serveDebug exposes the live registry, tracer, and run report (plus
// pprof) on a background HTTP listener. Snapshots are taken per
// request, so hitting /metrics mid-run observes the solve without
// pausing it.
func serveDebug(addr string, rep *reporter) {
	mux := http.NewServeMux()
	// The blank net/http/pprof import registers its handlers on the
	// default mux.
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = rep.reg.WriteProm(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = rep.tr.WriteChrome(w)
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = rep.snapshotReport().WriteJSON(w)
	})
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(os.Stderr, "solve: debug server:", err)
		}
	}()
	fmt.Printf("debug endpoint: http://%s/{metrics,trace,report,debug/pprof}\n", addr)
}

// reporter emits the end-of-run cost table, metrics summary, quality
// digest, storage accounting, and artifacts — all assembled from ONE
// quality.RunReport, so the text output, -report-out file, and /report
// endpoint agree. run arms it first, so every exit reports alike.
type reporter struct {
	o     options
	start time.Time
	reg   *obs.Registry
	tr    *obs.Tracer

	mu      sync.Mutex // guards runInfo, qa and final (/report reads them mid-run)
	runInfo quality.RunInfo
	qa      *quality.Auditor
	final   *quality.RunReport

	// Set by run as it builds them; nil when it exits before.
	mgr             *core.Manager
	prices          *prices
	storage         *storageChain
	measuredRestart float64 // 0 = not measured
}

// locked runs fn under the reporter's lock.
func (r *reporter) locked(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}

// finish records the solver's result.
func (r *reporter) finish(iterations int, converged bool, residual float64) {
	r.locked(func() {
		r.runInfo.Iterations, r.runInfo.Converged, r.runInfo.FinalResidual = iterations, converged, residual
	})
}

// buildReport assembles the versioned run report from the current
// state: run info, cost lines, quality sections, metrics snapshot.
func (r *reporter) buildReport(cost []quality.CostLine) *quality.RunReport {
	var ri quality.RunInfo
	var qa *quality.Auditor
	r.locked(func() { ri, qa = r.runInfo, r.qa })
	if ri.Exit == "" {
		ri.Exit = "ok"
	}
	ri.WallSeconds = time.Since(r.start).Seconds()
	rep := &quality.RunReport{Run: ri, Cost: cost, Metrics: r.reg.Snapshot(), GeneratedAtUnix: time.Now().Unix()}
	qa.Fill(rep)
	return rep
}

// snapshotReport backs /report: the final report once emit has run,
// else a live view built on demand. The live view has no cost lines —
// those need the Manager's committed Info, which cannot be probed
// concurrently with the solver thread.
func (r *reporter) snapshotReport() *quality.RunReport {
	var final *quality.RunReport
	r.locked(func() { final = r.final })
	if final != nil {
		return final
	}
	rep := r.buildReport(nil)
	if rep.Run.Exit == "ok" {
		// The disposition is only known once emit runs; a mid-run
		// snapshot must not claim a clean exit.
		rep.Run.Exit = "running"
	}
	return rep
}

func (r *reporter) emit() {
	var cost []quality.CostLine
	if r.mgr != nil {
		// Drain any in-flight async save first so LastInfo and the
		// registry describe the run's final state (no-op when sync).
		info, _ := r.mgr.WaitCheckpoint()
		cost = r.prices.costTable(info, r.measuredRestart)
	}
	rep := r.buildReport(cost)
	r.locked(func() { r.final = rep })
	r.printMetricsSummary(rep.Metrics)
	r.printQualitySummary(rep)
	r.writeArtifacts(rep)
	if r.storage != nil {
		r.storage.printStats()
	}
	if r.mgr != nil && r.mgr.DegradedSaves() > 0 {
		fmt.Printf("degraded saves: %d checkpoint(s) failed and were skipped (last: %v)\n",
			r.mgr.DegradedSaves(), r.mgr.LastSaveError())
	}
}

// printQualitySummary digests the quality sections of the report:
// audited saves, bound violations, per-recovery convergence-delay
// attribution, and the stability verdict.
func (r *reporter) printQualitySummary(rep *quality.RunReport) {
	if r.qa == nil {
		return
	}
	viol, worst := 0, 0.0
	for i := range rep.Checkpoints {
		rec := &rep.Checkpoints[i]
		if rec.Violated {
			viol++
		}
		if rec.BoundRatio > worst {
			worst = rec.BoundRatio
		}
	}
	fmt.Printf("quality: %d audited vector saves, %d bound violations, worst observed/requested %.3g\n",
		len(rep.Checkpoints), viol, worst)
	for _, e := range rep.Recoveries {
		delay := "unresolved (run ended before the failure-time residual was reacquired)"
		if e.Resolved {
			delay = fmt.Sprintf("realized N'=%d, residual reacquired in %d iterations",
				e.RealizedNPrime, e.ReacquireIterations)
		}
		dist := ""
		if e.Distortion != nil {
			dist = fmt.Sprintf(", adopted max-err %.3g", e.Distortion.MaxError)
		}
		fmt.Printf("  recovery@%-6d via %-18s (ckpt iter %d%s): %s\n",
			e.FailureIteration, e.Tier, e.CheckpointIteration, dist, delay)
	}
	if v := rep.Stability; v.Defined {
		state := "INSIDE"
		if !v.Inside {
			state = "OUTSIDE"
		}
		fmt.Printf("stability (%s): %s — %d/%d audited lossy checkpoints within c·‖r‖/‖b‖, worst margin %.3g\n",
			v.Region, state, v.CheckpointsInside, v.CheckpointsInside+v.CheckpointsOutside, v.WorstMargin)
	}
}

// printMetricsSummary renders the non-zero counters, gauges, and
// histogram aggregates from the report's snapshot — a digest of what
// -metrics-out (or /metrics) exposes in full.
func (r *reporter) printMetricsSummary(snap obs.Snapshot) {
	printed := false
	for i := range snap.Metrics {
		md := &snap.Metrics[i]
		name := md.Name
		for _, l := range md.Labels {
			name += fmt.Sprintf("{%s=%q}", l.Key, l.Value)
		}
		var line string
		switch {
		case md.Type == "histogram" && md.Count > 0:
			line = fmt.Sprintf("  %-52s count=%-6d mean=%-10.4g p99=%.4g",
				name, md.Count, md.Sum/float64(md.Count), md.Quantile(0.99))
		case md.Type != "histogram" && md.Value != 0:
			line = fmt.Sprintf("  %-52s %g", name, md.Value)
		default:
			continue // zero-valued: present in the snapshot, noise here
		}
		if !printed {
			fmt.Printf("metrics summary (non-zero; full snapshot via -metrics-out or /metrics):\n")
			printed = true
		}
		fmt.Println(line)
	}
}

func (r *reporter) writeArtifacts(rep *quality.RunReport) {
	write := func(path, what string, emit func(io.Writer) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err == nil {
			err = emit(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "solve: writing %s: %v\n", what, err)
			return
		}
		fmt.Printf("%s written to %s\n", what, path)
	}
	// Asking for either artifact armed the registry and tracer.
	write(r.o.metricsOut, "metrics snapshot", r.reg.WriteJSON)
	write(r.o.traceOut, "chrome trace", r.tr.WriteChrome)
	write(r.o.reportOut, "run report", rep.WriteJSON)
}

// injectedFailure records one injected event and the tier chain that
// recovered from it.
type injectedFailure struct {
	iter  int
	kinds []failure.Kind
	rep   *core.RecoveryReport
}

// runInjected drives the REAL solve (wall clock, no simulator) under a
// seeded deterministic fault plan, checkpointing every ckptEvery
// iterations and recovering every failure through the tier chain, and
// prints the per-failure tier table. Corruptions and the post-crash
// fsck act on the chain's base store.
func runInjected(o options, ckptEvery int, s solver.Checkpointable, x0 []float64, mgr *core.Manager, guard *abft.Guard,
	co *abft.ChecksumOperator, plan *failure.Plan, st *storageChain, p *prices, repr *reporter) error {
	fmt.Printf("injection plan: %d events, checkpoint every %d iterations\n", len(plan.Events()), ckptEvery)
	tr, injector := repr.tr, st.injector
	var failures []injectedFailure
	// Coalesce the iteration stretches between lifecycle events into
	// compute spans, so the trace shows the async pipeline's
	// encode/write spans overlapping them. All no-ops when tr is nil.
	computeStart := tr.Now()
	markCompute := func() {
		if now := tr.Now(); now > computeStart {
			tr.Complete(obs.TrackSolver, obs.CatSolver, obs.SpanCompute, computeStart, now-computeStart, nil)
		}
	}
	cb := func(it int, rnorm float64) error {
		// Feed the residual trajectory to the quality auditor (nil-safe
		// no-op when -quality is off): it tags checkpoints with the
		// residual at save and counts post-recovery reacquisition.
		mgr.Quality().ObserveResidual(it, rnorm)
		// Retain this iteration's redundancy first: the guard protects
		// the state the step just produced.
		guard.Observe()
		if it%ckptEvery == 0 {
			markCompute()
			if _, err := mgr.Checkpoint(); err != nil {
				return err
			}
			computeStart = tr.Now()
		}
		kinds := plan.Take(it)
		if len(kinds) == 0 {
			return nil
		}
		// Corruption kinds damage state first (latently, if no failure
		// accompanies them); proc/midckpt then lose a rank and force the
		// chain to run against whatever survives.
		needRecovery := false
		for _, k := range kinds {
			switch k {
			case failure.CorruptABFT:
				guard.CorruptRetained()
			case failure.CorruptShard:
				if _, err := failure.CorruptLatestShard(st.base, plan.Rand()); err != nil {
					return fmt.Errorf("inject shard corruption at %d: %w", it, err)
				}
			case failure.CorruptManifest:
				if _, err := failure.CorruptLatestManifest(st.base); err != nil {
					return fmt.Errorf("inject manifest corruption at %d: %w", it, err)
				}
			case failure.StorageWriteFault:
				injector.ArmWrite(1)
			case failure.StorageReadFault:
				injector.ArmRead(1)
			case failure.SlowIO:
				injector.ArmSlow(1)
			}
		}
		for _, k := range kinds {
			switch k {
			case failure.MidCheckpoint:
				// The failure strikes mid-write: the in-flight checkpoint
				// never commits and its partial object is discarded.
				if _, err := mgr.Checkpoint(); err != nil {
					return err
				}
				if err := mgr.AbortLastCheckpoint(); err != nil {
					return err
				}
				needRecovery = true
			case failure.ProcLoss:
				needRecovery = true
			case failure.Crash:
				// The storage dies mid-commit: the forced checkpoint leaves
				// a partial temp artifact and never commits (the save error
				// is the expected outcome, swallowed by degraded mode or
				// tolerated here). The store then revives — the restart —
				// and fsck sweeps the debris before tiered recovery runs
				// against what actually committed.
				injector.ArmCrash()
				_, _ = mgr.Checkpoint()
				_, _ = mgr.WaitCheckpoint() // drain an async save; its failure is the point
				if !injector.Crashed() {
					return fmt.Errorf("inject crash at %d: the store never saw a write", it)
				}
				injector.Revive()
				frep, err := fti.Fsck(st.base)
				if err != nil {
					return fmt.Errorf("fsck after crash at %d: %w", it, err)
				}
				fmt.Printf("  crash@%d: store revived; %s\n", it, frep)
				needRecovery = true
			}
		}
		if !needRecovery {
			return nil // latent corruption: surfaces at the next recovery
		}
		markCompute()
		tr.Instant(obs.TrackSolver, obs.CatRecovery, obs.SpanFailure)
		guard.FailNextRank()
		rep, err := mgr.RecoverTiered(x0)
		if err != nil {
			return err
		}
		computeStart = tr.Now()
		failures = append(failures, injectedFailure{iter: it, kinds: kinds, rep: rep})
		return nil
	}
	res, err := solver.RunToConvergence(s, solver.Options{MaxIter: o.maxIter}, cb)
	markCompute()
	if err != nil {
		return err
	}
	repr.finish(res.Iterations, res.Converged, res.FinalResidual)
	fmt.Printf("converged=%v iterations=%d residual=%.3e failures=%d\n",
		res.Converged, res.Iterations, res.FinalResidual, len(failures))
	if co != nil {
		fmt.Printf("checksum operator: %d applications, %d mismatches\n", co.Applications(), co.Mismatches())
	}
	gs := guard.Stats()
	fmt.Printf("abft guard: observes=%d reconstructions=%d rejected=%d local-iterations=%d\n",
		gs.Observes, gs.Reconstructions, gs.Rejected, gs.LocalIterations)
	if len(failures) == 0 {
		return nil
	}
	fmt.Printf("per-failure recovery tiers (modeled costs at 2048 ranks):\n")
	for _, f := range failures {
		names := make([]string, len(f.kinds))
		for i, k := range f.kinds {
			names[i] = k.String()
		}
		fmt.Printf("  @%-6d %-24s recovered via %s\n", f.iter, strings.Join(names, "+"), f.rep.Used)
		for _, att := range f.rep.Attempts {
			status := "accepted"
			if !att.Accepted {
				status = "rejected: " + att.Err
			}
			var cost string
			switch att.Tier {
			case core.TierABFT:
				cost = fmt.Sprintf("%d local its, modeled %.3gs, 0 B read", att.Iterations, p.abft(att))
			case core.TierCheckpoint, core.TierPreviousCheckpoint:
				cost = fmt.Sprintf("seq %d, %d B read, modeled %.3gs",
					att.Seq, att.ReadBytes, p.restart(mgr.LastInfo()))
			default:
				cost = "free (all progress lost)"
			}
			fmt.Printf("    %-20s %-10s %.3g ms wall — %s\n",
				att.Tier, status, 1e3*att.Seconds, cost)
		}
	}
	return nil
}
