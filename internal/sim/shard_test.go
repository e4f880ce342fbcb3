package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fti"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// newShardedCG wires a CG solver to a lossy Manager with the given
// storage layout.
func newShardedCG(t *testing.T, a *sparse.CSR, b []float64, shards, workers int) (*solver.CG, *core.Manager) {
	t.Helper()
	s := solver.NewCG(a, nil, b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-9})
	m, err := core.NewManager(core.Config{
		Scheme:         core.Lossy,
		SZParams:       sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
		Shards:         shards,
		StorageWorkers: workers,
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// shardedSimRun executes one failure-injected run whose checkpoint
// write cost comes from the striped-PFS model at the given shard
// count.
func shardedSimRun(t *testing.T, shards, workers int) *Outcome {
	t.Helper()
	a, b, _ := testSystem()
	s, m := newShardedCG(t, a, b, shards, workers)
	mdl := cluster.Bebop()
	// Price the write at the paper's weak-scaled size: each of the 256
	// ranks contributes a state like this test system's, so the PFS
	// transfer term dominates and the striping is visible. The local
	// solve still produces the real (small) checkpoint bytes; only the
	// virtual-time cost is scaled.
	const ranks = 256
	raw := float64(a.Rows) * 8 * ranks
	out, err := Run(Config{
		Stepper:         s,
		Manager:         m,
		X0:              make([]float64, a.Rows),
		TitSeconds:      2,
		IntervalSeconds: 25,
		CheckpointSeconds: func(info fti.Info) float64 {
			return mdl.ShardedCheckpointSeconds(ranks, float64(info.Bytes)*ranks, raw, core.Lossy, info.Shards)
		},
		RecoverySeconds: func(info fti.Info) float64 { return 3 },
		FailureSchedule: []float64{120, 260},
		MaxIterations:   200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	return out
}

// shardedRecoveryRun executes one controlled-failure run whose restart
// cost comes from the streaming read model at the layout's shard
// count; the checkpoint cost is held constant so the two layouts
// execute identical virtual-time schedules and the only difference is
// the priced recovery.
func shardedRecoveryRun(t *testing.T, shards, workers int) *Outcome {
	t.Helper()
	a, b, _ := testSystem()
	s, m := newShardedCG(t, a, b, shards, workers)
	mdl := cluster.Bebop()
	const ranks = 256
	raw := float64(a.Rows) * 8 * ranks
	out, err := Run(Config{
		Stepper:           s,
		Manager:           m,
		X0:                make([]float64, a.Rows),
		TitSeconds:        2,
		IntervalSeconds:   25,
		CheckpointSeconds: func(info fti.Info) float64 { return 3 },
		RecoverySeconds: func(info fti.Info) float64 {
			return mdl.ShardedRecoverySeconds(ranks, float64(info.Bytes)*ranks, raw, core.Lossy, info.Shards)
		},
		// One failure only, after the first committed checkpoint: the
		// recovery duration then shifts the completion time but not
		// the iteration/checkpoint sequence.
		FailureSchedule: []float64{40},
		MaxIterations:   200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	if out.Failures != 1 {
		t.Fatalf("expected 1 failure, got %d", out.Failures)
	}
	return out
}

// TestShardedRecoveryPricing: restarts priced off Info.Shards through
// the streaming read model must leave the numerics untouched while
// shrinking the recovery time for sharded layouts.
func TestShardedRecoveryPricing(t *testing.T) {
	mono := shardedRecoveryRun(t, 1, 0)
	sharded := shardedRecoveryRun(t, 8, 4)
	if mono.IterationsExecuted != sharded.IterationsExecuted ||
		mono.ConvergenceIterations != sharded.ConvergenceIterations ||
		mono.FinalResidual != sharded.FinalResidual {
		t.Fatalf("recovery pricing changed the numerics:\nmono    %+v\nsharded %+v", mono, sharded)
	}
	if !(sharded.RecoveryTime < mono.RecoveryTime) {
		t.Fatalf("streaming restart did not shrink recovery time: mono %.3fs sharded %.3fs",
			mono.RecoveryTime, sharded.RecoveryTime)
	}
}

// TestShardedSimNumericsLayoutIndependent: through real recoveries,
// the sharded and monolithic layouts must execute the identical
// iteration sequence — only the simulated checkpoint time (the
// striped write) may differ, and it must shrink with sharding.
func TestShardedSimNumericsLayoutIndependent(t *testing.T) {
	mono := shardedSimRun(t, 1, 0)
	sharded := shardedSimRun(t, 8, 4)
	if mono.IterationsExecuted != sharded.IterationsExecuted ||
		mono.ConvergenceIterations != sharded.ConvergenceIterations ||
		mono.FinalResidual != sharded.FinalResidual {
		t.Fatalf("layout changed the numerics:\nmono    %+v\nsharded %+v", mono, sharded)
	}
	if !(sharded.CheckpointTime < mono.CheckpointTime) {
		t.Fatalf("striped write did not shrink checkpoint time: mono %.2fs sharded %.2fs",
			mono.CheckpointTime, sharded.CheckpointTime)
	}
}
