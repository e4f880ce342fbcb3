package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
)

func init() {
	register("fig7", "Figure 7: expected fault tolerance overhead vs processes (MTTI 1h and 3h)", runFig7)
}

// Fig7Curve is one method × scheme series across the scaling grid.
type Fig7Curve struct {
	Method string
	Scheme core.Scheme
	// Overhead[mtti][i] is the expected overhead fraction at
	// Procs[i]; mtti index 0 = 1 hour, 1 = 3 hours.
	Overhead [2][]float64
}

// Fig7Result reproduces both panels of Figure 7 via Eqs. (4)/(8) with
// the per-scheme checkpoint times of Figures 4–6 and the per-method
// N′ values of §4.4 (Jacobi ≈6, GMRES 0, CG 594).
type Fig7Result struct {
	Procs  []int
	MTTIs  []float64
	Curves []Fig7Curve
}

// paperNPrime returns the expected extra iterations per lossy recovery
// the paper uses in its Fig. 7 analysis (absolute counts at the
// paper's problem scale).
func paperNPrime(method string) float64 {
	switch method {
	case "jacobi":
		return 6
	case "gmres":
		return 0
	case "cg":
		return 594
	}
	return 0
}

// nPrimeFraction expresses the same values as a fraction of the
// paper's total iteration counts, the form that transfers to problems
// of other sizes.
func nPrimeFraction(method string) float64 {
	base := cluster.PaperBaselines()[method]
	return paperNPrime(method) / float64(base.Iterations)
}

func runFig7(cfg Config) (Result, error) {
	measGrid := 16
	if cfg.Quick {
		measGrid = 8
	}
	mdl := cluster.Bebop()
	out := &Fig7Result{MTTIs: []float64{3600, 3 * 3600}}
	for _, sc := range cluster.Table3ProblemSizes() {
		out.Procs = append(out.Procs, sc.Procs)
	}
	for _, method := range methodNames {
		base := cluster.PaperBaselines()[method]
		r, err := measureRatios(method, measGrid, base.LossyErrorBound)
		if err != nil {
			return nil, err
		}
		tit := base.TitSeconds()
		for _, scheme := range schemeOrder {
			curve := Fig7Curve{Method: method, Scheme: scheme}
			for mi, mtti := range out.MTTIs {
				lambda := 1 / mtti
				for _, sc := range cluster.Table3ProblemSizes() {
					elemsPerProc := float64(sc.N) * float64(sc.N) * float64(sc.N) / float64(sc.Procs)
					oneVec := elemsPerProc * 8 * float64(sc.Procs)
					tradRaw := oneVec * float64(base.CkptVectors)
					enc, raw := schemeBytes(scheme, oneVec, tradRaw, r)
					tckp := mdl.CheckpointSeconds(sc.Procs, enc, raw, scheme)
					overhead := model.ExpectedOverheadRatio(lambda, tckp)
					if scheme == core.Lossy {
						overhead = model.LossyOverheadRatio(lambda, tckp, paperNPrime(method), tit)
					}
					curve.Overhead[mi] = append(curve.Overhead[mi], overhead)
				}
			}
			out.Curves = append(out.Curves, curve)
		}
	}
	return out, nil
}

// Curve returns the series for a method × scheme (nil if absent).
func (r *Fig7Result) Curve(method string, scheme core.Scheme) *Fig7Curve {
	for i := range r.Curves {
		if r.Curves[i].Method == method && r.Curves[i].Scheme == scheme {
			return &r.Curves[i]
		}
	}
	return nil
}

// WriteText renders both MTTI panels.
func (r *Fig7Result) WriteText(w io.Writer) error {
	for mi, mtti := range r.MTTIs {
		fmt.Fprintf(w, "Figure 7(%c) — expected FT overhead, MTTI = %.0f h\n", 'a'+mi, mtti/3600)
		fmt.Fprintf(w, "%-18s", "curve\\procs")
		for _, p := range r.Procs {
			fmt.Fprintf(w, "%8d", p)
		}
		fmt.Fprintln(w)
		for _, c := range r.Curves {
			fmt.Fprintf(w, "%-18s", c.Method+"-"+c.Scheme.String())
			for _, v := range c.Overhead[mi] {
				fmt.Fprintf(w, "%7.1f%%", 100*v)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "paper: lossy curves lowest and flattest; CG-lossy crosses traditional near 1536 (1 h) / 768 (3 h) procs")
	return nil
}
