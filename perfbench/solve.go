package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fti"
	"repro/internal/sparse"
)

// ranks is the number of equal row blocks a process failure picks
// from; it matches the ABFT guard's default rank count.
const ranks = 8

// failEvent is one seeded process failure. It strikes after the
// solve's at-th executed iteration and loses one rank's block of the
// solver state; with abft set, the guard's retained redundancy is
// corrupted first, so the ABFT tier must reject and a checkpoint tier
// must take the failure.
type failEvent struct {
	at   int
	rank int
	abft bool
}

// makePlans draws the failure plans of a run's k solves, one sorted
// event list per solve. Each solve's failures are a Poisson process
// over its executed iterations at rate 1/MTTI, so the gaps between them
// are exponential at the workload's MTTI. It is built in the standard
// two parts: up to a horizon, a Poisson count of failures at uniform
// positions; past it, exponential gaps. A position's offset within its
// checkpoint interval is drawn on its own, which keeps it uniform.
//
// The uniforms are stratified so that a run's failure count and the
// work its failures cost vary little from seed to seed: the k counts
// take one draw from each of k equal strata (a Latin hypercube over the
// solves), the run's positions, offsets, kinds and ranks one draw from
// each of as many strata as the run has failures before the horizon,
// and the i-th gap past the horizon of the k solves one draw per
// stratum again. Draws go to solves in seeded order. In tiered
// workloads half the failures are plain process losses and half lose
// the ABFT guard's retained state too.
func makePlans(w workload, seed int64, k int) [][]failEvent {
	rng := rand.New(rand.NewSource(seed))
	strata := func(n int) []float64 {
		u := make([]float64, n)
		for j, s := range rng.Perm(n) {
			u[j] = (float64(s) + rng.Float64()) / float64(n)
		}
		return u
	}
	horizon := w.horizon * w.interval
	event := func(at int, kind, rank float64) failEvent {
		return failEvent{at: at, rank: int(ranks * rank), abft: w.tiered && kind < 0.5}
	}
	plans := make([][]failEvent, k)
	n := make([]int, k)
	total := 0
	for j, u := range strata(k) {
		n[j] = poissonQuantile(float64(horizon)/w.mtti, u)
		total += n[j]
	}
	pos, offset, kind, rank := strata(total), strata(total), strata(total), strata(total)
	next := 0
	for j := range plans {
		for range n[j] {
			cell := int(pos[next]*float64(w.horizon)) * w.interval
			at := cell + 1 + int(offset[next]*float64(w.interval))
			plans[j] = append(plans[j], event(at, kind[next], rank[next]))
			next++
		}
	}
	t := make([]float64, k)
	for j := range t {
		t[j] = float64(horizon)
	}
	for open := true; open; {
		open = false
		gap, kind, rank := strata(k), strata(k), strata(k)
		for j := range plans {
			if t[j] > float64(maxIterations(w)) {
				continue
			}
			open = true
			t[j] -= w.mtti * math.Log1p(-gap[j])
			plans[j] = append(plans[j], event(int(t[j])+1, kind[j], rank[j]))
		}
	}
	for j, evs := range plans {
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
		for i := 1; i < len(evs); i++ {
			evs[i].at = max(evs[i].at, evs[i-1].at+1) // one failure per iteration
		}
		plans[j] = evs
	}
	return plans
}

// poissonQuantile returns the smallest n with P(N ≤ n) ≥ u for N
// Poisson with mean mu.
func poissonQuantile(mu, u float64) int {
	p := math.Exp(-mu)
	cdf := p
	n := 0
	for cdf < u && n < 1000 {
		n++
		p *= mu / float64(n)
		cdf += p
	}
	return n
}

// solveOut is everything one solve measured and checked.
type solveOut struct {
	tts, stall, recovery, abftRec, backpressure float64
	iterations, replay, failures                int
	ckptBytes                                   int64
	alloc                                       uint64
	gcPause                                     float64
	retries                                     int
	stalls                                      []float64
	residuals                                   []float64
	relres                                      float64
	attempted, failed                           int
	problems                                    []string
	setup                                       setupTimes
	traceMark                                   int // first span of this solve in the tracer
}

func (o *solveOut) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runSolve drives one solve to convergence under the plan's failures
// and checks the result. The timed region runs from the first Step to
// the return of the final WaitCheckpoint.
func runSolve(w workload, st *stack, tr *tracer, plan []failEvent) solveOut {
	out := solveOut{setup: st.setup}
	mgr, slv, guard := st.mgr, st.slv, st.guard
	n := st.a.Rows
	x0 := make([]float64, n)
	maxIter := maxIterations(w)
	out.residuals = make([]float64, 0, 4096)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	async := mgr.AsyncCheckpointer()
	var as0 fti.AsyncStats
	if async != nil {
		as0 = async.Stats()
	}
	if tr != nil {
		tr.on = true
		out.traceMark = tr.mark()
	}

	ckptIter := -1 // logical iteration of this solve's latest checkpoint call
	lastSeq := 0
	noteCommits := func() {
		if info := mgr.LastInfo(); info.Seq != lastSeq {
			lastSeq = info.Seq
			out.ckptBytes += int64(info.Bytes)
		}
	}
	next := 0 // next event of the plan
	converged := false

	root := tr.begin(kSolve)
	start := time.Now()
	for exec := 1; exec <= maxIter; exec++ {
		id := tr.begin(kStep)
		rnorm := slv.Step()
		tr.end(id)
		out.residuals = append(out.residuals, rnorm)
		if guard != nil {
			id := tr.begin(kObserve)
			guard.Observe()
			tr.end(id)
		}
		if mgr.Due() {
			it := slv.Iteration()
			c0 := time.Now()
			id := tr.begin(kCkpt)
			_, err := mgr.Checkpoint()
			tr.end(id)
			d := time.Since(c0).Seconds()
			out.stall += d
			out.stalls = append(out.stalls, d)
			out.check(err == nil, "checkpoint at iteration %d: %v", it, err)
			if err == nil {
				ckptIter = it
			}
			noteCommits()
		}

		if next < len(plan) && plan[next].at == exec {
			rnorm = failAndRecover(w, st, tr, plan[next], ckptIter, x0, &out)
			next++
			noteCommits()
		}
		if slv.Converged(rnorm) {
			out.iterations = exec
			converged = true
			break
		}
	}
	id := tr.begin(kWait)
	_, err := mgr.WaitCheckpoint()
	tr.end(id)
	out.tts = time.Since(start).Seconds()
	tr.end(root)
	if tr != nil {
		tr.on = false
		// The root span's own clock is the traced solve's time to
		// solution, so the ledger is closed against the same readings.
		s := tr.window(out.traceMark)[0]
		out.tts = float64(s.end-s.start) / 1e9
	}
	noteCommits()

	runtime.ReadMemStats(&ms1)
	out.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcPause = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	if async != nil {
		out.backpressure = async.Stats().BackpressureSeconds - as0.BackpressureSeconds
	}
	out.retries = st.res.Stats().Retries

	out.check(err == nil, "final checkpoint drain: %v", err)
	out.check(mgr.DegradedSaves() == 0, "%d degraded saves", mgr.DegradedSaves())
	if st.co != nil {
		out.check(st.co.Mismatches() == 0, "checksum operator flagged %d of %d applications", st.co.Mismatches(), st.co.Applications())
	}
	out.relres = trueRelResidual(st.a, st.b, slv.X())
	out.check(converged, "did not converge within %d iterations", maxIter)
	out.check(out.relres <= w.rtol, "recomputed ‖b−Ax‖/‖b‖ = %.3e exceeds rtol %.0e", out.relres, w.rtol)
	return out
}

// failAndRecover injects one process failure and recovers through the
// workload's path, checking the tier taken and the iteration rolled
// back to. It returns the residual norm the solver stands at.
func failAndRecover(w workload, st *stack, tr *tracer, ev failEvent, ckptIter int, x0 []float64, out *solveOut) float64 {
	mgr, slv, guard := st.mgr, st.slv, st.guard
	out.failures++
	atFail := slv.Iteration()
	want := core.TierCheckpoint
	if ckptIter < 0 {
		want = core.TierRestartZero
	}
	if guard != nil {
		if ev.abft {
			guard.CorruptRetained()
		} else {
			want = core.TierABFT
		}
		guard.FailRank(ev.rank)
	} else {
		lo, hi := ev.rank*st.a.Rows/ranks, (ev.rank+1)*st.a.Rows/ranks
		x := slv.X()
		for i := lo; i < hi; i++ {
			x[i] = math.NaN()
		}
	}

	used := core.TierRestartZero
	rolled := 0
	var err error
	r0 := time.Now()
	id := tr.begin(kRecover)
	switch {
	case guard != nil:
		var rep *core.RecoveryReport
		if rep, err = mgr.RecoverTiered(x0); err == nil {
			used, rolled = rep.Used, rep.Iteration
			for _, a := range rep.Attempts {
				if a.Tier == core.TierABFT {
					out.abftRec += a.Seconds
				}
			}
		}
	case want == core.TierCheckpoint:
		used = core.TierCheckpoint
		rolled, err = mgr.Recover()
	default:
		rolled = mgr.RecoverFresh(x0)
	}
	tr.end(id)
	out.recovery += time.Since(r0).Seconds()

	wantIter := 0
	switch want {
	case core.TierABFT:
		wantIter = atFail
	case core.TierCheckpoint:
		wantIter = ckptIter
	}
	out.check(err == nil && used == want && rolled == wantIter,
		"failure at executed iteration %d (rank %d, abft-corrupt %v): recovered via %v to iteration %d, want %v to %d (err %v)",
		ev.at, ev.rank, ev.abft, used, rolled, want, wantIter, err)
	out.replay += atFail - rolled
	return slv.ResidualNorm()
}

// trueRelResidual recomputes ‖b − A·x‖/‖b‖ straight from the CSR
// arrays, independently of the solver's kernels and its own residual.
func trueRelResidual(a *sparse.CSR, b, x []float64) float64 {
	var rr, bb float64
	for i := 0; i < a.Rows; i++ {
		s := b[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s -= a.Val[k] * x[a.ColIdx[k]]
		}
		rr += s * s
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr) / math.Sqrt(bb)
}

// referenceSolve runs the workload's solver with no failures and no
// checkpoints, for the iteration count extra_iterations is measured
// against.
func referenceSolve(w workload) (iters int, seconds float64, relres float64, err error) {
	st, err := buildStack(w, "", 0, false, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	for iters = 1; iters <= maxIterations(w); iters++ {
		if st.slv.Converged(st.slv.Step()) {
			break
		}
	}
	seconds = time.Since(start).Seconds()
	if iters > maxIterations(w) {
		return 0, 0, 0, fmt.Errorf("reference solve did not converge within %d iterations", maxIterations(w))
	}
	return iters, seconds, trueRelResidual(st.a, st.b, st.slv.X()), nil
}
