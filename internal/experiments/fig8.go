package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/solver"
)

func init() {
	register("fig8", "Figure 8: number of convergence iterations, failure-free vs lossy checkpointing", runFig8)
}

// Fig8Cell is one (method, scale) comparison.
type Fig8Cell struct {
	Method      string
	Procs       int
	Unknowns    int
	FailureFree int
	Lossy       int
	Failures    int
}

// Fig8Result reproduces Figure 8: convergence iterations with lossy
// checkpointing under injected failures (MTTI = 1 h) versus the
// failure-free baseline, across the weak-scaling grid. Real solves at
// laptop scale; the simulated clock maps each run onto the paper's
// wall-clock baseline so the failure dynamics match.
type Fig8Result struct {
	Cells []Fig8Cell
}

// simTimes builds the cluster-model lossy checkpoint/recovery cost functions
// for a method at a paper scale, extrapolating measured ratios.
func simTimes(method string, procs int, r ratios) (func(fti.Info) float64, func(fti.Info) float64) {
	mdl := cluster.Bebop()
	base := cluster.PaperBaselines()[method]
	oneVec := base.PerProcMB / float64(base.CkptVectors) * 1e6 * float64(procs)
	return func(fti.Info) float64 {
			return mdl.CheckpointSeconds(procs, oneVec/r.Lossy, oneVec, core.Lossy)
		}, func(fti.Info) float64 {
			return mdl.RecoverySeconds(procs, oneVec/r.Lossy, oneVec, core.Lossy)
		}
}

func runFig8(cfg Config) (Result, error) {
	scales := []int{256, 512, 1024, 2048}
	out := &Fig8Result{}
	for _, method := range methodNames {
		base := cluster.PaperBaselines()[method]
		ratio, err := measureRatios(method, gridFor(1024, cfg.Quick), base.LossyErrorBound)
		if err != nil {
			return nil, err
		}
		for _, procs := range scales {
			grid := gridForMethod(method, procs, cfg.Quick)
			a, b := poissonSystem(grid)

			// Failure-free baseline.
			sBase, err := buildSolver(method, a, b, base.RTol)
			if err != nil {
				return nil, err
			}
			resBase, err := solver.RunToConvergence(sBase, solver.Options{MaxIter: 500000}, nil)
			if err != nil {
				return nil, err
			}
			if !resBase.Converged {
				return nil, fmt.Errorf("fig8: %s baseline did not converge at grid %d", method, grid)
			}
			// Map real iterations to the paper's wall clock so the
			// MTTI=1h failure process interacts with the run the way
			// it did on Bebop.
			tit := base.BaselineSeconds / float64(resBase.Iterations)

			s, m, err := managedRun(method, a, b, base.RTol, core.Lossy, base.LossyErrorBound)
			if err != nil {
				return nil, err
			}
			ckptSec, recSec := simTimes(method, procs, ratio)
			interval := model.YoungInterval(3600, ckptSec(fti.Info{}))
			outSim, err := sim.Run(sim.Config{
				Stepper:           s,
				Manager:           m,
				X0:                make([]float64, a.Rows),
				TitSeconds:        tit,
				IntervalSeconds:   interval,
				CheckpointSeconds: ckptSec,
				RecoverySeconds:   recSec,
				Failures:          failure.NewInjector(3600, cfg.Seed+int64(procs)),
				MaxIterations:     2000000,
			})
			if err != nil {
				return nil, err
			}
			if !outSim.Converged {
				return nil, fmt.Errorf("fig8: %s lossy run did not converge at grid %d", method, grid)
			}
			out.Cells = append(out.Cells, Fig8Cell{
				Method:      method,
				Procs:       procs,
				Unknowns:    a.Rows,
				FailureFree: resBase.Iterations,
				Lossy:       outSim.ConvergenceIterations,
				Failures:    outSim.Failures,
			})
		}
	}
	return out, nil
}

// Cell returns the entry for (method, procs), nil if absent.
func (r *Fig8Result) Cell(method string, procs int) *Fig8Cell {
	for i := range r.Cells {
		if r.Cells[i].Method == method && r.Cells[i].Procs == procs {
			return &r.Cells[i]
		}
	}
	return nil
}

// WriteText renders the grouped bars of Figure 8.
func (r *Fig8Result) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "Figure 8 — convergence iterations: failure-free vs lossy checkpointing (MTTI = 1 h)")
	fmt.Fprintf(w, "%-8s %6s %9s | %12s %12s %9s %8s\n",
		"method", "procs", "unknowns", "failure-free", "lossy", "failures", "delta")
	for _, c := range r.Cells {
		delta := 100 * float64(c.Lossy-c.FailureFree) / float64(c.FailureFree)
		fmt.Fprintf(w, "%-8s %6d %9d | %12d %12d %9d %+7.1f%%\n",
			c.Method, c.Procs, c.Unknowns, c.FailureFree, c.Lossy, c.Failures, delta)
	}
	fmt.Fprintln(w, "paper: Jacobi +0%, GMRES ≤0% (slightly accelerated), CG ≈+25%")
	return nil
}
