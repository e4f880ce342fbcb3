// Package lossyckpt is the public facade of this reproduction of
// "Improving Performance of Iterative Methods by Lossy Checkpointing"
// (Tao, Di, Liang, Chen, Cappello — HPDC'18).
//
// The package re-exports the user-facing pieces of the internal
// implementation:
//
//   - iterative solvers (Jacobi/Gauss-Seidel/SOR/SSOR, CG, GMRES(k))
//     with a step-level API and restart support,
//   - error-bounded lossy compressors (SZ-like and ZFP-like) plus
//     lossless baselines,
//   - an FTI-like checkpoint/restart library (Protect/Checkpoint/
//     Recover) with pluggable storage and encoders,
//   - the paper's lossy checkpointing scheme connecting the two
//     (Manager), including the Theorem-3 adaptive error bound for
//     GMRES,
//   - the analytic performance model (Young's interval, overhead
//     equations, Theorems 1–3),
//   - and the experiment registry that regenerates every table and
//     figure of the paper's evaluation.
//
// A minimal end-to-end use:
//
//	a := lossyckpt.Poisson3D(32)
//	b := lossyckpt.OnesRHS(a.Rows)
//	cg := lossyckpt.NewCG(a, nil, b, nil, lossyckpt.SeqSpace{}, lossyckpt.SolverOptions{RTol: 1e-7})
//	mgr, _ := lossyckpt.NewManager(lossyckpt.ManagerConfig{
//	    Scheme:   lossyckpt.Lossy,
//	    Interval: 100,
//	    SZParams: lossyckpt.SZParams{Mode: lossyckpt.PWRel, ErrorBound: 1e-4},
//	}, lossyckpt.NewMemStorage(), cg)
//	res, _ := lossyckpt.RunToConvergence(cg, lossyckpt.SolverOptions{}, func(it int, rnorm float64) error {
//	    _, err := mgr.MaybeCheckpoint()
//	    return err
//	})
//
// # Performance
//
// The two hot paths of the lossy-checkpointing argument — the
// compressor and the solver inner loop — are parallel:
//
// SZ compression uses a blocked container ("SZG2"): vectors larger
// than SZParams.BlockSize elements (default 32,768 = 256 KiB) are
// split into fixed-size blocks that compress and decompress
// independently, each with its own predictor state and Huffman table,
// across a worker pool sized by GOMAXPROCS. The pointwise error bound
// of every mode is preserved exactly (RelRange converts to an absolute
// bound using the global value range before blocking), the output
// bytes are schedule-independent, and legacy single-stream "SZG1"
// checkpoints remain decodable. Inputs of at most one block keep the
// legacy format byte-for-byte. The ZFP, FPC, and flate codecs get the
// same treatment through a shared blocked container ("BLK1",
// internal/codec): per-block independent
// state, concurrent compress and in-place decode, shard cuts aligned
// to block boundaries, legacy streams still decoding — with ZFP's
// blocks pinned to transform-block multiples so its blocked and
// legacy streams reconstruct bitwise identically.
//
// Sparse matrix-vector products (CSR.MulVec / MulVecSub) partition by
// row ranges above ~32k nonzeros; each row accumulates in serial
// order, so parallel results are bitwise identical to serial ones and
// convergence traces do not change. Smaller systems stay on the serial
// path. BLAS-1 kernels (Dot, Norm2, NormInf) use 4-way unrolled
// independent accumulators.
//
// Checkpointing itself is asynchronous on request: ManagerConfig.Async
// (or NewAsyncCheckpointer around a checkpointer) routes checkpoints through a
// three-stage pipeline — synchronous capture (a deep copy into a
// double buffer, the only part the solver waits for), background
// encode through the blocked compressor, background storage write. At
// most one checkpoint is in flight; a second request blocks until the
// first commits (backpressure), and a background failure is surfaced
// on the next Checkpoint call. Recovery drains the in-flight write
// first, and a write that never completed falls back to the previous
// committed checkpoint, exactly like the paper's failure-during-
// checkpoint path. The numerics are unaffected: async and sync runs
// produce bitwise-identical convergence traces. The analytic model
// mirrors this with a capture-stall-only cost: AsyncEffectiveStall
// (capture + max(0, encode+write − interval)) replaces Tckp in
// Eq. (5)/(8), and the virtual-time simulator's AsyncCheckpoint mode
// charges exactly that stall while background writes occupy simulated
// time concurrently with iterations.
//
// The storage stage itself shards on request: ManagerConfig.Shards
// (or (*fti.Checkpointer).SetSharding) splits every checkpoint into N
// shard objects written concurrently by a bounded worker pool
// (ManagerConfig.StorageWorkers), with cut points aligned to the SZG2
// compression-block boundaries, plus a small manifest — shard names,
// sizes, per-shard CRC32C checksums, encoder mode — committed last.
// A checkpoint exists exactly when its manifest does: shards without a
// manifest (a crashed write) are orphans that recovery ignores and gc
// sweeps, and a group with any missing or checksum-corrupted shard is
// rejected whole, so recovery falls back to the previous committed
// checkpoint, the paper's failure-during-checkpoint path again.
// Sharded and monolithic checkpoints coexist in one storage directory,
// and convergence traces are bitwise independent of the layout. The
// cluster model prices the layout via striped-PFS bandwidth:
// per-stripe bandwidth × min(shards, stripes)
// (cluster.Model.ShardedCheckpointSeconds, keyed off
// fti.Info.Shards).
//
// The restore path streams symmetrically: a sharded checkpoint is
// decoded without reassembling its payload — each worker reads its
// shard, verifies its CRC32C, and block-decodes the SZG2 compression
// blocks it holds straight into the destination vectors, overlapping
// read, checksum, and decode across shards. Recover decodes directly
// into the registered (protected) variables when lengths match, so a
// restart performs no whole-payload buffer allocation and no
// decode-then-copy; the redundant whole-payload CRC is skipped for
// sharded groups (per-shard CRC32C already covered every byte) and
// kept for monolithic ones. Encoders expose the in-place decode via
// the fti.DecoderInto extension (sz.DecompressInto, zfp.DecompressInto,
// the lossless codecs' DecompressInto), with a decode-plus-copy
// fallback for encoders that lack it. The cluster model prices
// restarts the same way (cluster.Model.ShardedRecoverySeconds:
// per-stripe read bandwidth × min(shards, stripes), saturating at the
// read aggregate, overlapped with decompress-per-core).
//
// The checkpoint cadence itself can close the loop on the model:
// ManagerConfig.AdaptiveInterval (or sim.Config.Controller in the
// virtual-time simulator) plugs in the online interval controller —
// EWMA estimators over the measured per-checkpoint stage timings
// (capture/encode/write seconds and bytes in/out, surfaced on every
// fti.Info), a censored-exponential posterior over observed
// failures (failure.RateEstimator), and a re-plan of the optimal
// interval each planning epoch via Young's √(2·C·M) or Daly's
// higher-order formula (model.DalyInterval). Asynchronous runs solve the
// fixed point τ = policy(M̂, AsyncEffectiveStall(t̂cap, t̂bg, τ)), so the
// planned interval reflects the overlapped stall rather than the raw
// checkpoint cost. The controller is a pure state machine driven on
// the caller's clock: simulated runs are bitwise reproducible —
// same seed and failure trace, same interval trajectory.
//
// Recovery itself is tiered: an ABFTGuard wired into
// ManagerConfig.ABFT retains per-iteration algorithmic redundancy
// (exact-state CG/PCG reconstruction, or a backward/forward hybrid for
// restartable solvers), and Manager.RecoverTiered then runs the full
// chain after a failure — checkpoint-free ABFT reconstruction, the
// latest committed checkpoint, older checkpoints, restart-from-zero —
// accepting the highest tier that verifies (bitwise checksums over the
// retained state, a true-residual band over the reconstruction) and
// reporting every attempt's cost in a RecoveryReport. A checksum
// operator (NewChecksumOperator) adds Huang–Abraham verification of
// every matrix-vector product for silent-corruption detection. The
// deterministic fault-injection harness (ParseFailurePlan, the
// cmd/solve -inject flag) drives seeded process losses and targeted
// corruptions of retained state, shards and manifests to exercise
// every rung of the chain.
//
// The whole pipeline is observable without being perturbable:
// Manager.Instrument wires an obs.Registry and obs.Tracer
// through every layer it owns (fti stage timings and byte counts,
// shard fan-out, ABFT guard verdicts, controller re-plans, per-tier
// recovery outcomes), emitting per-stage spans on a Chrome
// trace_event timeline. Both are nil-safe — uninstrumented runs pay
// nothing — and instrumentation is a pure observer: instrumented and
// uninstrumented runs produce bitwise-identical convergence traces.
// The simulator (sim.Config.Metrics/Tracer) emits the same span
// schema on its virtual clock, and cmd/solve serves everything live
// (-debug-addr) or as exit artifacts (-metrics-out, -trace-out).
//
// The storage layer beneath all of this is fault-tolerant: wrapping
// any Storage in NewResilientStorage classifies every error
// (transient / permanent / corruption), absorbs transient PFS faults
// with capped exponential backoff under a per-op retry and time
// budget, fails fast on permanent ones, and hedges slow reads with a
// delayed second fetch. Commit-protocol crash points (a torn temp
// file, an unrenamed temp, shards without a manifest, a partial
// manifest) are enumerated and swept by FsckStorage at startup, so
// List exposes only fully committed checkpoints; a background
// scrubber (fti.Scrubber) CRC-verifies committed groups between checkpoints
// and repairs latent corruption from retained state before a restart
// ever needs the bytes. ManagerConfig.DegradedWrites keeps the solver
// iterating when a save fails anyway — a failed checkpoint degrades
// the retention window, never the solve. The deterministic harness
// drives all of it: failure.StorageInjector (and the -inject grammar's
// storagewrite/storageread/slowio/crash kinds, with N..M/S iteration
// ranges for sustained campaigns) injects seeded fault mixes that the
// wrapper must absorb with a bitwise-unchanged convergence trace, and
// the sim/cluster models price the expected retry delay per
// checkpoint (cluster.Model.StorageRetrySeconds).
//
// Knobs: GOMAXPROCS sizes the pool; SZParams.BlockSize trades
// per-block Huffman-table overhead against parallelism;
// (*fti.Checkpointer).SetKeep sets the checkpoint retention window
// (default 2, minimum 1); (*fti.Checkpointer).SetSharding sets the shard
// count and storage worker bound. Checkpoint encode buffers are reused
// across checkpoints — double-buffered in the async pipeline — so a
// custom Storage implementation must not retain the byte slice passed
// to Write, must not recycle buffers returned by Read, and must be
// safe for concurrent use (the background writer runs while
// recovery-side reads may be issued, and the shard pool issues
// concurrent writes/reads for distinct names); see fti.Storage for the
// full ownership contract and the manifest+shard object layout.
//
// Benchmarks: go test -bench 'SZCompressParallel|CSRMulVecParallel'
// compares serial and parallel sub-benchmarks on 1M-element states
// and the 100³ Poisson operator; go test -bench CheckpointStall
// compares the solver-visible stall of sync vs async checkpoints;
// go test -bench ShardedWrite compares monolithic and sharded storage
// throughput on the same workload.
package lossyckpt

import (
	"repro/internal/abft"
	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// ---- Sparse matrices and problem generators --------------------------------

// CSR is a compressed-sparse-row matrix.
type CSR = sparse.CSR

// NewMatrixBuilder returns a builder for a rows×cols matrix.
func NewMatrixBuilder(rows, cols int) *sparse.Builder { return sparse.NewBuilder(rows, cols) }

// Poisson3D builds the paper's Eq. (15) operator on an n×n×n grid.
func Poisson3D(n int) *CSR { return sparse.Poisson3D(n) }

// Poisson2D builds the 5-point operator on an n×n grid.
func Poisson2D(n int) *CSR { return sparse.Poisson2D(n) }

// OnesRHS returns the all-ones right-hand side.
func OnesRHS(n int) []float64 { return sparse.OnesRHS(n) }

// SmoothField samples a smooth synthetic field (a realistic solver
// state / forcing).
func SmoothField(n int, seed int64) []float64 { return sparse.SmoothField(n, seed) }

// ---- Solvers ----------------------------------------------------------------

// SolverOptions configure convergence testing.
type SolverOptions = solver.Options

// SeqSpace is the sequential reduction space.
type SeqSpace = solver.SeqSpace

// NewCG constructs a CG solver; see solver.NewCG.
var NewCG = solver.NewCG

// NewGMRES constructs a GMRES(k) solver; see solver.NewGMRES.
var NewGMRES = solver.NewGMRES

// RunToConvergence drives a solver.Stepper to convergence with an optional
// per-iteration callback.
var RunToConvergence = solver.RunToConvergence

// ---- Compression -------------------------------------------------------------

// SZParams configure the SZ-like compressor.
type SZParams = sz.Params

// Error-bound modes.
const (
	AbsBound = sz.Abs
	RelRange = sz.RelRange
	PWRel    = sz.PWRel
)

// CompressSZ compresses with the SZ-like error-bounded compressor.
var CompressSZ = sz.Compress

// DecompressSZ reverses CompressSZ.
var DecompressSZ = sz.Decompress

// ---- Checkpoint/restart -------------------------------------------------------

// Storage is where checkpoints live.
type Storage = fti.Storage

// CheckpointSnapshot is one checkpoint's content (iteration, scalars,
// vectors), for direct fti.Checkpointer/fti.AsyncCheckpointer use.
type CheckpointSnapshot = fti.Snapshot

// NewCheckpointer wraps storage with an encoder.
var NewCheckpointer = fti.New

// NewAsyncCheckpointer wraps an fti.Checkpointer in the three-stage
// asynchronous pipeline: synchronous capture, background encode,
// background write.
var NewAsyncCheckpointer = fti.NewAsync

// NewMemStorage returns an in-memory checkpoint store.
var NewMemStorage = fti.NewMemStorage

// RawEncoder stores vectors verbatim (traditional checkpointing).
type RawEncoder = fti.Raw

// ---- Fault-tolerant storage ---------------------------------------------------

// StorageFaultPolicy tunes the resilient storage wrapper: retry count,
// capped exponential backoff with seeded jitter, per-op time budget,
// and the hedged-read delay for slow primaries.
type StorageFaultPolicy = fti.FaultPolicy

// NewResilientStorage wraps any Storage with error classification,
// bounded retry/backoff for transient faults, fail-fast on permanent
// ones, and hedged re-reads — the solver above it never sees a
// transient PFS error. The zero policy means defaults: 4 retries,
// 2ms base / 250ms cap backoff.
var NewResilientStorage = fti.NewResilient

// StorageFaultError is the terminal error of an exhausted or
// fail-fast storage op: op, object name, attempt count, class, cause.
type StorageFaultError = fti.FaultError

// FsckStorage sweeps a storage namespace at startup: stale temp files
// unlinked, orphan shards and uncommitted groups GC'd, so List
// exposes only fully committed checkpoints afterwards.
var FsckStorage = fti.Fsck

// ---- The paper's scheme --------------------------------------------------------

// The three checkpointing schemes.
const (
	Traditional = core.Traditional
	LosslessGz  = core.Lossless
	Lossy       = core.Lossy
)

// ManagerConfig assembles a Manager.
type ManagerConfig = core.Config

// Manager wires a solver to checkpoint storage under a scheme.
type Manager = core.Manager

// NewManager builds a Manager; see core.NewManager.
var NewManager = core.NewManager

// ---- Tiered ABFT recovery --------------------------------------------------------

// ABFTGuard retains per-iteration algorithmic redundancy over a solver
// so a lost rank's block can be reconstructed without any checkpoint:
// exact-state reconstruction for CG/PCG (retained r, p, ρ plus a local
// solve of the failed block), or the backward/forward hybrid for
// restartable solvers (periodically retained x spliced into a
// restart). Wire into ManagerConfig.ABFT to arm the recovery chain's
// first tier.
type ABFTGuard = abft.Guard

// ABFTConfig assembles an ABFTGuard.
type ABFTConfig = abft.Config

// Reconstruction methods.
const (
	ABFTExactState      = abft.ExactState
	ABFTBackwardForward = abft.BackwardForward
)

// NewABFTGuard builds an ABFTGuard over an operator, right-hand side
// and solver.
var NewABFTGuard = abft.NewGuard

// NewChecksumOperator wraps a CSR operator with Huang–Abraham checksum
// verification of every matrix-vector product — silent-corruption
// detection on the solver's hot path, numerics untouched.
var NewChecksumOperator = abft.NewChecksumOperator

// The chain's tiers, tried in order by Manager.RecoverTiered.
const (
	TierABFT               = core.TierABFT
	TierCheckpoint         = core.TierCheckpoint
	TierPreviousCheckpoint = core.TierPreviousCheckpoint
	TierRestartZero        = core.TierRestartZero
)

// RecoveryReport is the outcome of one Manager.RecoverTiered call.
type RecoveryReport = core.RecoveryReport

// The injectable fault kinds (the -inject spec grammar's names).
const (
	FailProcLoss        = failure.ProcLoss
	FailCorruptABFT     = failure.CorruptABFT
	FailCorruptShard    = failure.CorruptShard
	FailCorruptManifest = failure.CorruptManifest
	FailMidCheckpoint   = failure.MidCheckpoint
	FailStorageWrite    = failure.StorageWriteFault
	FailStorageRead     = failure.StorageReadFault
	FailSlowIO          = failure.SlowIO
	FailCrash           = failure.Crash
)

// ParseFailurePlan parses a `kind(+kind)*@iter(,...)` injection spec
// into a seeded plan.
var ParseFailurePlan = failure.ParsePlan

// ---- Adaptive checkpoint interval ------------------------------------------------

// IntervalControllerConfig assembles the online checkpoint-interval
// controller: EWMA cost estimators + censored failure-rate posterior +
// Young/Daly re-planning (the AsyncEffectiveStall fixed point in async
// mode). Plug the controller into ManagerConfig.AdaptiveInterval or
// sim.Config.Controller.
type IntervalControllerConfig = adapt.Config

// NewIntervalController builds an interval controller.
var NewIntervalController = adapt.New

// ---- Performance model ----------------------------------------------------------

// YoungInterval is Eq. (1): the optimal checkpoint interval.
var YoungInterval = model.YoungInterval

// ExpectedOverheadRatio is Eq. (5).
var ExpectedOverheadRatio = model.ExpectedOverheadRatio

// MaxExtraIterations is Theorem 1 (Eq. 9).
var MaxExtraIterations = model.MaxExtraIterations

// AsyncEffectiveStall is the solver-visible stall per asynchronous
// checkpoint: capture + max(0, encode+write − interval).
var AsyncEffectiveStall = model.AsyncEffectiveStall

// AsyncOverheadRatio is Eq. (5) with the overlapped checkpoint cost.
var AsyncOverheadRatio = model.AsyncOverheadRatio

// GMRESAdaptiveBound is Theorem 3's adaptive error bound.
var GMRESAdaptiveBound = model.GMRESAdaptiveBound

// ---- Experiments -----------------------------------------------------------------

// ExperimentConfig tunes an experiment run.
type ExperimentConfig = experiments.Config

// RunExperiment regenerates a table/figure by ID (fig1…fig10, table3).
var RunExperiment = experiments.Run

// ExperimentIDs lists all reproducible artifacts.
var ExperimentIDs = experiments.IDs
