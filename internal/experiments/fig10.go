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
	register("fig10", "Figure 10: experimental vs expected fault tolerance overhead with optimal intervals", runFig10)
}

// Fig10Cell is one method × scheme outcome.
type Fig10Cell struct {
	Method          string
	Scheme          core.Scheme
	ExperimentalPct float64 // measured FT overhead / baseline productive time
	ExpectedPct     float64 // model Eq. (4)/(8)
	CkptSeconds     float64 // one checkpoint at 2,048 procs
	IntervalSeconds float64 // Young-optimal interval
	MeanFailures    float64
	Trials          int
}

// Fig10Result reproduces the paper's headline experiment (§5.4): the
// average fault tolerance overhead of the three schemes with their
// Young-optimal checkpoint intervals under injected failures
// (MTTI = 1 h) at the 2,048-process scale, next to the performance
// model's expectation.
type Fig10Result struct {
	Cells []Fig10Cell
}

func runFig10(cfg Config) (Result, error) {
	trials := 10
	measGrid := 16
	if cfg.Quick {
		trials = 3
		measGrid = 8
	}
	if cfg.Trials > 0 {
		trials = cfg.Trials
	}
	const procs = 2048
	mdl := cluster.Bebop()
	out := &Fig10Result{}

	for _, method := range methodNames {
		base := cluster.PaperBaselines()[method]
		ratio, err := measureRatios(method, measGrid, base.LossyErrorBound)
		if err != nil {
			return nil, err
		}
		a, b := poissonSystem(simGrid(method, cfg.Quick))
		sBase, err := buildSolver(method, a, b, base.RTol)
		if err != nil {
			return nil, err
		}
		resBase, err := solver.RunToConvergence(sBase, solver.Options{MaxIter: 500000}, nil)
		if err != nil || !resBase.Converged {
			return nil, fmt.Errorf("fig10: %s baseline failed: %v", method, err)
		}
		tit := base.BaselineSeconds / float64(resBase.Iterations)
		baselineSeconds := base.BaselineSeconds

		oneVec := base.PerProcMB / float64(base.CkptVectors) * 1e6 * procs
		tradRaw := oneVec * float64(base.CkptVectors)

		for _, scheme := range schemeOrder {
			enc, raw := schemeBytes(scheme, oneVec, tradRaw, ratio)
			ckptSec := mdl.CheckpointSeconds(procs, enc, raw, scheme)
			recSec := mdl.RecoverySeconds(procs, enc, raw, scheme)
			interval := model.YoungInterval(3600, ckptSec)

			var sumOverhead float64
			var sumFailures int
			for trial := 0; trial < trials; trial++ {
				s, m, err := managedRun(method, a, b, base.RTol, scheme, base.LossyErrorBound)
				if err != nil {
					return nil, err
				}
				outSim, err := sim.Run(sim.Config{
					Stepper:           s,
					Manager:           m,
					X0:                make([]float64, a.Rows),
					TitSeconds:        tit,
					IntervalSeconds:   interval,
					CheckpointSeconds: func(fti.Info) float64 { return ckptSec },
					RecoverySeconds:   func(fti.Info) float64 { return recSec },
					Failures:          failure.NewInjector(3600, cfg.Seed+int64(100*trial)+int64(len(method))),
					MaxIterations:     5000000,
				})
				if err != nil {
					return nil, err
				}
				if !outSim.Converged {
					return nil, fmt.Errorf("fig10: %s/%s trial %d did not converge", method, scheme, trial)
				}
				sumOverhead += outSim.FaultToleranceOverhead(baselineSeconds)
				sumFailures += outSim.Failures
			}
			meanOverheadPct := 100 * sumOverhead / float64(trials) / baselineSeconds

			lambda := 1.0 / 3600
			var expected float64
			if scheme == core.Lossy {
				// The paper's N′ values are absolute iteration counts
				// at its problem scale; what transfers across scales
				// is the *fraction* of the total iteration count
				// (Jacobi 6/3941, GMRES 0, CG 594/2400 ≈ 25%).
				nPrime := nPrimeFraction(method) * float64(resBase.Iterations)
				expected = model.LossyOverheadRatio(lambda, ckptSec, nPrime, tit)
			} else {
				expected = model.ExpectedOverheadRatio(lambda, ckptSec)
			}
			out.Cells = append(out.Cells, Fig10Cell{
				Method:          method,
				Scheme:          scheme,
				ExperimentalPct: meanOverheadPct,
				ExpectedPct:     100 * expected,
				CkptSeconds:     ckptSec,
				IntervalSeconds: interval,
				MeanFailures:    float64(sumFailures) / float64(trials),
				Trials:          trials,
			})
		}
	}
	return out, nil
}

// Cell returns the entry for (method, scheme), nil if absent.
func (r *Fig10Result) Cell(method string, scheme core.Scheme) *Fig10Cell {
	for i := range r.Cells {
		if r.Cells[i].Method == method && r.Cells[i].Scheme == scheme {
			return &r.Cells[i]
		}
	}
	return nil
}

// Reduction returns the relative reduction of lossy FT overhead vs the
// given scheme for a method, in percent (paper: 23–70% vs traditional,
// 20–58% vs lossless).
func (r *Fig10Result) Reduction(method string, vs core.Scheme) float64 {
	lossy := r.Cell(method, core.Lossy)
	ref := r.Cell(method, vs)
	if lossy == nil || ref == nil || ref.ExperimentalPct == 0 {
		return 0
	}
	return 100 * (ref.ExperimentalPct - lossy.ExperimentalPct) / ref.ExperimentalPct
}

// WriteText renders the paired experimental/expected bars.
func (r *Fig10Result) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "Figure 10 — fault tolerance overhead, optimal intervals, MTTI = 1 h, 2,048 procs")
	fmt.Fprintf(w, "%-8s %-12s | %8s %8s | %10s %10s %9s\n",
		"method", "scheme", "exp.", "model", "Tckp(s)", "intvl(s)", "failures")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%-8s %-12s | %7.1f%% %7.1f%% | %10.1f %10.0f %9.1f\n",
			c.Method, c.Scheme, c.ExperimentalPct, c.ExpectedPct,
			c.CkptSeconds, c.IntervalSeconds, c.MeanFailures)
	}
	for _, m := range methodNames {
		fmt.Fprintf(w, "%s: lossy reduces FT overhead by %.0f%% vs traditional, %.0f%% vs lossless\n",
			m, r.Reduction(m, core.Traditional), r.Reduction(m, core.Lossless))
	}
	fmt.Fprintln(w, "paper: reductions of 23–70% vs traditional and 20–58% vs lossless")
	return nil
}
