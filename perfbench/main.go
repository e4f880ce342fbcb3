// Command perfbench is the end-to-end solve benchmark: real in-process
// solves of a 3-D Poisson system that checkpoint through the full
// stack and survive seeded process failures, timed from the first
// Step to the final checkpoint drain.
//
//	perfbench -workload pcg-lossy -seed 1 -seconds 20 -trace 0 -workdir DIR
//
// With -trace 0 it prints the end-to-end metrics, measured with no
// timing wrappers installed. With -trace 1 it runs every plan twice,
// untraced and traced, checks that the two solves are bitwise
// identical, and prints the per-layer metrics derived from the traced
// solves' spans. The last line of output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of the failure plans")
	seconds := flag.Float64("seconds", 20, "measured seconds; sizes the plan set")
	trace := flag.Int("trace", 0, "1 runs the traced comparison and prints per-layer metrics")
	workdir := flag.String("workdir", "", "directory for the checkpoint stores (required)")
	traceOut := flag.String("trace-out", "", "write the traced run's spans to this TSV file")
	calibrate := flag.Bool("calibrate", false, "measure per-iteration time and checkpoint cost, print the Young interval")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *workdir == "" {
		err = fmt.Errorf("-workdir is required")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *calibrate {
		if err := runCalibrate(w, *workdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	b := &bench{w: w, seed: *seed, workdir: *workdir}
	if err := b.run(*seconds, *trace == 1, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.failed > 0 {
		os.Exit(1)
	}
}

type bench struct {
	w       workload
	seed    int64
	workdir string
	solves  int

	refIters     int
	refSeconds   float64
	attempted    int
	failed       int
	problemLines []string
}

func (b *bench) newStack(tr *tracer) (*stack, string, error) {
	b.solves++
	dir := filepath.Join(b.workdir, fmt.Sprintf("solve-%d", b.solves))
	st, err := buildStack(b.w, dir, b.seed, true, tr)
	return st, dir, err
}

// solve builds a fresh stack, runs one solve under p, and removes the
// checkpoint store.
func (b *bench) solve(p []failEvent, tr *tracer) (solveOut, error) {
	st, dir, err := b.newStack(tr)
	if err != nil {
		return solveOut{}, err
	}
	out := runSolve(b.w, st, tr, p)
	b.attempted += out.attempted
	b.failed += out.failed
	for _, pr := range out.problems {
		b.problem("plan solve %d: %s", b.solves, pr)
	}
	return out, os.RemoveAll(dir)
}

func (b *bench) problem(format string, args ...any) {
	if len(b.problemLines) < 20 {
		b.problemLines = append(b.problemLines, fmt.Sprintf(format, args...))
	}
}

func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		b.problem(format, args...)
	}
}

// run measures the workload and prints the metrics and the JSON
// result; failed checks are counted in b.failed.
func (b *bench) run(seconds float64, traced bool, traceOut string) error {
	w := b.w
	a, _ := buildSystem(w)
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	fmt.Printf("system: Poisson3D %d³ = %d unknowns, %d nonzeros; %s, rtol %.0e, scheme %v, async %v, shards %d, tiered %v\n",
		w.grid, a.Rows, a.NNZ(), w.method, w.rtol, w.scheme, w.async, max(w.shards, 1), w.tiered)
	fmt.Printf("working set %.1f MiB (computed); host L2 %s per core, L3 %s; GOMAXPROCS %d of %d CPUs\n",
		float64(workingSetBytes(w, a))/(1<<20), hostCache(2), hostCache(3), runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("failures: exponential gaps at MTTI %.0f executed iterations; checkpoint every %d iterations\n", w.mtti, w.interval)

	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		return err
	}
	var relres float64
	var err error
	b.refIters, b.refSeconds, relres, err = referenceSolve(w)
	if err != nil {
		return err
	}
	b.check(relres <= w.rtol, "reference solve: recomputed ‖b−Ax‖/‖b‖ = %.3e exceeds rtol", relres)
	fmt.Printf("reference solve (no failures, no checkpoints): %d iterations, %.4f s\n", b.refIters, b.refSeconds)

	// Warm-up on plans from an unrelated stream: code paths, buffer
	// pools and the page cache settle before anything is timed.
	if _, err := b.solve(makePlans(w, b.seed^0x7761726d, 1)[0], nil); err != nil {
		return err
	}

	k := max(3, int(math.Round(seconds*w.solvesPerSecond)))
	plans := makePlans(w, b.seed, k)
	var metrics map[string]metric
	if traced {
		// Each plan runs twice when traced, so half the set keeps the
		// run about as long as an untraced one.
		metrics, err = b.runTraced(plans[:(k+1)/2], traceOut)
	} else {
		metrics, err = b.runUntraced(plans, seconds)
	}
	if err != nil {
		return err
	}
	for _, line := range b.problemLines {
		fmt.Println("CHECK FAILED:", line)
	}
	fmt.Printf("ops_attempted %d count (solves, checkpoint saves, recoveries and result checks)\n", b.attempted)
	fmt.Printf("ops_failed %d count\n", b.failed)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runUntraced measures the end-to-end metrics: it cycles over the plan
// set while the next cycle still fits in seconds (at least once). Each
// plan's timings take the median over cycles; metrics are the mean
// over plans, except ckpt_stall_s and recovery_s: the cost of one
// Checkpoint and one recovery call (the paper's C and R), because
// per-solve totals move with each seed's iteration and failure counts.
// Later cycles must repeat the first bit for bit.
func (b *bench) runUntraced(plans [][]failEvent, seconds float64) (map[string]metric, error) {
	var cycles [][]solveOut
	start := time.Now()
	for {
		c0 := time.Now()
		cycle := make([]solveOut, len(plans))
		for j, p := range plans {
			out, err := b.solve(p, nil)
			if err != nil {
				return nil, err
			}
			cycle[j] = out
			if len(cycles) > 0 {
				first := cycles[0][j]
				b.check(out.iterations == first.iterations && sameBits(out.residuals, first.residuals),
					"plan %d repeated with a different trajectory (%d vs %d iterations)", j, out.iterations, first.iterations)
			}
		}
		cycles = append(cycles, cycle)
		el := time.Since(start).Seconds()
		if el+time.Since(c0).Seconds() > seconds {
			break
		}
	}
	fmt.Printf("plan set: %d solves per cycle, %d cycle(s), %.1f s measured\n", len(plans), len(cycles), time.Since(start).Seconds())

	perPlan := func(f func(o *solveOut) float64) float64 {
		var sum float64
		for j := range plans {
			vals := make([]float64, len(cycles))
			for c := range cycles {
				vals[c] = f(&cycles[c][j])
			}
			sum += median(vals)
		}
		return sum / float64(len(plans))
	}
	var setups []float64
	for _, c := range cycles {
		for _, o := range c {
			setups = append(setups, o.setup.total)
		}
	}
	// perCall is the typical cost of one event: each solve's mean per
	// call, then the median over the solves that had one.
	perCall := func(total func(o *solveOut) float64, calls func(o *solveOut) int) float64 {
		var per []float64
		for _, c := range cycles {
			for i := range c {
				if n := calls(&c[i]); n > 0 {
					per = append(per, total(&c[i])/float64(n))
				}
			}
		}
		return median(per)
	}
	iters := perPlan(func(o *solveOut) float64 { return float64(o.iterations) })
	m := map[string]metric{
		"time_to_solution_s": {perPlan(func(o *solveOut) float64 { return o.tts }), "s"},
		"setup_s":            {median(setups), "s"},
		"ckpt_stall_s": {perCall(func(o *solveOut) float64 { return o.stall },
			func(o *solveOut) int { return len(o.stalls) }), "s"},
		"recovery_s": {perCall(func(o *solveOut) float64 { return o.recovery },
			func(o *solveOut) int { return o.failures }), "s"},
		"iterations":     {iters, "count"},
		"ckpt_bytes":     {perPlan(func(o *solveOut) float64 { return float64(o.ckptBytes) }), "B"},
		"solve_alloc_mb": {perPlan(func(o *solveOut) float64 { return float64(o.alloc) / 1e6 }), "MB"},
	}
	failures := perPlan(func(o *solveOut) float64 { return float64(o.failures) })
	replay := perPlan(func(o *solveOut) float64 { return float64(o.replay) })
	printMetrics(m, endToEndOrder)
	// extra_iterations is exact per plan but swings with each seed's
	// failure count, so it is a per-layer metric, not a gated one.
	fmt.Printf("extra_iterations %.6g count (%.2f failures, %.1f replayed, N' %.1f per solve)\n",
		iters-float64(b.refIters), failures, replay, iters-float64(b.refIters)-replay)
	fmt.Printf("per solve: checkpoint stall %.6g s in %.1f calls, recovery %.6g s (ckpt_stall_s and recovery_s are per call)\n",
		perPlan(func(o *solveOut) float64 { return o.stall }),
		perPlan(func(o *solveOut) float64 { return float64(len(o.stalls)) }),
		perPlan(func(o *solveOut) float64 { return o.recovery }))
	return m, nil
}

var endToEndOrder = []string{"time_to_solution_s", "setup_s", "ckpt_stall_s", "recovery_s",
	"iterations", "ckpt_bytes", "solve_alloc_mb"}

// runTraced runs every plan untraced and traced, alternating which
// goes first, checks the pair is bitwise identical and each traced
// ledger closes, and derives the per-layer metrics.
func (b *bench) runTraced(plans [][]failEvent, traceOut string) (map[string]metric, error) {
	tr := newTracer()
	var err error
	var ledgers []ledger
	var outs []solveOut
	var untracedTTS, tracedTTS float64
	for j, p := range plans {
		var plain, trd solveOut
		for pass := range 2 {
			if pass == j%2 {
				trd, err = b.solve(p, tr)
			} else {
				plain, err = b.solve(p, nil)
			}
			if err != nil {
				return nil, err
			}
		}
		b.check(trd.iterations == plain.iterations && sameBits(trd.residuals, plain.residuals),
			"plan %d: traced solve diverged from untraced (%d vs %d iterations)", j, trd.iterations, plain.iterations)
		l := buildLedger(tr.window(trd.traceMark), trd.traceMark)
		b.check(len(l.problems) == 0, "plan %d ledger: %s", j, strings.Join(l.problems[:min(len(l.problems), 3)], "; "))
		ledgers = append(ledgers, l)
		outs = append(outs, trd)
		untracedTTS += plain.tts
		tracedTTS += trd.tts
	}
	if traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(traceOut), 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeTSV(traceOut); err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s\n", traceOut)
	}
	return b.layerMetrics(ledgers, outs, (tracedTTS-untracedTTS)/untracedTTS), nil
}

// layerMetrics turns the traced solves' ledgers into per-solve means
// and rates.
func (b *bench) layerMetrics(ls []ledger, outs []solveOut, overhead float64) map[string]metric {
	w := b.w
	n := float64(len(ls))
	var sum ledger
	var stalls, matrix, pcSetup, guardSetup, fsck []float64
	var backpressure, abftRec, recoverCalls, replay, iters, gc, retries float64
	for i, l := range ls {
		for k := range nKinds {
			sum.self[k] += l.self[k]
			sum.total[k] += l.total[k]
			sum.calls[k] += l.calls[k]
			sum.bytesIn[k] += l.bytesIn[k]
			sum.bytesOut[k] += l.bytesOut[k]
		}
		sum.root += l.root
		sum.bgBusy += l.bgBusy
		sum.bgOver += l.bgOver
		o := outs[i]
		stalls = append(stalls, o.stalls...)
		matrix = append(matrix, o.setup.matrix)
		pcSetup = append(pcSetup, o.setup.precond)
		guardSetup = append(guardSetup, o.setup.guard)
		fsck = append(fsck, o.setup.storage)
		backpressure += o.backpressure
		abftRec += o.abftRec
		recoverCalls += float64(o.failures)
		replay += float64(o.replay)
		iters += float64(o.iterations)
		gc += o.gcPause
		retries += float64(o.retries)
	}
	per := func(ns int64) float64 { return float64(ns) / 1e9 / n }
	cnt := func(c int64) float64 { return float64(c) / n }
	rate := func(bytes float64, ns int64) float64 {
		if ns == 0 {
			return 0
		}
		return bytes / (float64(ns) / 1e9)
	}
	a, _ := buildSystem(w)
	nr, nnz := float64(a.Rows), float64(a.NNZ())
	spmvBytes, spmvFlops := 16*nnz+8*(nr+1)+16*nr, 2*nnz
	if w.tiered {
		// Huang–Abraham verification: a dot with the column sums, a sum
		// of the result, and the absolute-sum error scale.
		spmvBytes, spmvFlops = spmvBytes+40*nr, spmvFlops+6*nr
	}
	nnzL := (nnz + nr) / 2
	applyBytes := 2*(16*nnzL+8*(nr+1)) + 32*nr
	sweepBytes := 2*(16*nnz+8*(nr+1)) + 64*nr
	sweepRate := 0.0
	if w.method == "jacobi" {
		sweepRate = rate(sweepBytes*float64(sum.calls[kStep]), sum.self[kStep]) / 1e9
	}
	fmt.Printf("kernel traffic per call (computed from nnz and rows): SpMV %.0f B, %.0f flop; IC0 apply %.0f B; Jacobi step %.0f B\n",
		spmvBytes, spmvFlops, applyBytes, sweepBytes)
	ckptSelf := sum.self[kCkpt]
	m := map[string]metric{
		"solver.step_s":                     {per(sum.self[kStep]), "s"},
		"solver.steps":                      {cnt(sum.calls[kStep]), "count"},
		"solver.ref_iterations":             {float64(b.refIters), "count"},
		"solver.ref_solve_s":                {b.refSeconds, "s"},
		"solver.jacobi_sweep_gbps_computed": {sweepRate, "GB/s"},
		"sparse.spmv_s":                     {per(sum.total[kSpMV]), "s"},
		"sparse.spmv_calls":                 {cnt(sum.calls[kSpMV]), "count"},
		"sparse.spmv_gbps_computed":         {rate(spmvBytes*float64(sum.calls[kSpMV]), sum.total[kSpMV]) / 1e9, "GB/s"},
		"sparse.spmv_gflops_computed":       {rate(spmvFlops*float64(sum.calls[kSpMV]), sum.total[kSpMV]) / 1e9, "GFLOP/s"},
		"vec.dot_s":                         {per(sum.total[kDot]), "s"},
		"vec.dot_calls":                     {cnt(sum.calls[kDot]), "count"},
		"precond.apply_s":                   {per(sum.total[kApply]), "s"},
		"precond.apply_calls":               {cnt(sum.calls[kApply]), "count"},
		"precond.apply_gbps_computed":       {rate(applyBytes*float64(sum.calls[kApply]), sum.total[kApply]) / 1e9, "GB/s"},
		"precond.setup_s":                   {median(pcSetup), "s"},
		"abft.observe_s":                    {per(sum.total[kObserve]), "s"},
		"abft.guard_setup_s":                {median(guardSetup), "s"},
		"core.ckpt_calls":                   {cnt(sum.calls[kCkpt]), "count"},
		"core.capture_s":                    {per(ckptSelf) - backpressure/n, "s"},
		"core.backpressure_s":               {backpressure / n, "s"},
		"core.ckpt_stall_p50_ms":            {1e3 * quantile(stalls, 0.5), "ms"},
		"core.ckpt_stall_p90_ms":            {1e3 * quantile(stalls, 0.9), "ms"},
		"core.recover_calls":                {recoverCalls / n, "count"},
		"core.recover_ckpt_s":               {per(sum.total[kRecover]) - abftRec/n, "s"},
		"core.recover_abft_s":               {abftRec / n, "s"},
		"core.replay_iterations":            {replay / n, "count"},
		"core.nprime_iterations":            {(iters-replay)/n - float64(b.refIters), "count"},
		"extra_iterations":                  {iters/n - float64(b.refIters), "count"},
		"fti.encode_s":                      {per(sum.total[kEncode]), "s"},
		"fti.encode_calls":                  {cnt(sum.calls[kEncode]), "count"},
		"fti.encode_in_bytes":               {cnt(sum.bytesIn[kEncode]), "B"},
		"fti.encode_out_bytes":              {cnt(sum.bytesOut[kEncode]), "B"},
		"fti.encode_mbps":                   {rate(float64(sum.bytesIn[kEncode]), sum.total[kEncode]) / 1e6, "MB/s"},
		"fti.decode_s":                      {per(sum.total[kDecode]), "s"},
		"fti.decode_mbps":                   {rate(float64(sum.bytesOut[kDecode]), sum.total[kDecode]) / 1e6, "MB/s"},
		"fti.bg_busy_s":                     {per(sum.bgBusy), "s"},
		"fti.bg_overlap_ratio":              {ratio(sum.bgOver, sum.bgBusy), "ratio"},
		"storage.write_s":                   {per(sum.total[kWrite]), "s"},
		"storage.write_calls":               {cnt(sum.calls[kWrite]), "count"},
		"storage.write_bytes":               {cnt(sum.bytesIn[kWrite]), "B"},
		"storage.read_s":                    {per(sum.total[kRead]), "s"},
		"storage.read_calls":                {cnt(sum.calls[kRead]), "count"},
		"storage.read_bytes":                {cnt(sum.bytesOut[kRead]), "B"},
		"storage.list_s":                    {per(sum.total[kList]), "s"},
		"storage.delete_calls":              {cnt(sum.calls[kDelete]), "count"},
		"storage.retries":                   {retries / n, "count"},
		"setup.matrix_s":                    {median(matrix), "s"},
		"setup.fsck_s":                      {median(fsck), "s"},
		"runtime.gc_pause_s":                {gc / n, "s"},
		"ledger.other_s":                    {per(sum.self[kSolve]), "s"},
		"trace.overhead_ratio":              {overhead, "ratio"},
	}
	fmt.Printf("traced: %d plans, time to solution %.4f s per solve (traced); overhead %+.2f%% of the untraced solves\n",
		len(ls), per(sum.root), 100*overhead)
	fmt.Println("ledger (main-goroutine self time per solve; the rows sum to the traced time to solution):")
	for _, k := range []kind{kStep, kSpMV, kDot, kApply, kObserve, kCkpt, kEncode, kWrite, kList, kDelete, kRecover, kRead, kDecode, kWait, kSolve} {
		label := kindNames[k]
		if k == kSolve {
			label = "other (loop, failure injection)"
		}
		if sum.self[k] == 0 && k != kSolve {
			continue
		}
		fmt.Printf("  %-32s %10.6f s %6.2f%%\n", label, per(sum.self[k]), 100*float64(sum.self[k])/float64(sum.root))
	}
	printMetrics(m, nil)
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func printMetrics(m map[string]metric, order []string) {
	if order == nil {
		for k := range m {
			order = append(order, k)
		}
		sort.Strings(order)
	}
	for _, k := range order {
		fmt.Printf("%s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// runCalibrate measures what the frozen checkpoint intervals are
// derived from: the per-iteration time of the reference solve and the
// solver-visible cost C of one checkpoint taken mid-solve (for the
// async workload also the background encode+write time).
func runCalibrate(w workload, workdir string) error {
	iters, secs, _, err := referenceSolve(w)
	if err != nil {
		return err
	}
	tit := secs / float64(iters)
	st, err := buildStack(w, filepath.Join(workdir, "calibrate"), 1, true, nil)
	if err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Join(workdir, "calibrate"))
	for i := 0; i < iters/2; i++ {
		st.slv.Step()
	}
	var stalls, bg, bgBusy []float64
	for i := 0; i < 9; i++ {
		c0 := time.Now()
		if _, err := st.mgr.Checkpoint(); err != nil {
			return err
		}
		stalls = append(stalls, time.Since(c0).Seconds())
		info, err := st.mgr.WaitCheckpoint()
		if err != nil {
			return err
		}
		bg = append(bg, info.EncodeSeconds+info.WriteSeconds)
		st.slv.Step()
		if w.async {
			// The same background work while the solver keeps
			// stepping, as it does in a solve: both share the cores.
			if _, err := st.mgr.Checkpoint(); err != nil {
				return err
			}
			for range 2 * (int(math.Ceil((info.EncodeSeconds+info.WriteSeconds)/tit)) + 1) {
				st.slv.Step()
			}
			info, err := st.mgr.WaitCheckpoint()
			if err != nil {
				return err
			}
			bgBusy = append(bgBusy, info.EncodeSeconds+info.WriteSeconds)
		}
	}
	c := median(stalls) / tit
	fmt.Printf("%s: %.3f ms per iteration, C = %.3f ms = %.2f iterations, MTTI %.0f iterations\n",
		w.name, 1e3*tit, 1e3*median(stalls), c, w.mtti)
	fmt.Printf("Young interval sqrt(2*C*MTTI) = %.1f iterations\n", math.Sqrt(2*c*w.mtti))
	if w.async {
		fmt.Printf("background encode+write %.3f ms = %.1f iterations with the solver idle, %.3f ms = %.1f iterations while it steps (async floor)\n",
			1e3*median(bg), median(bg)/tit, 1e3*median(bgBusy), median(bgBusy)/tit)
	}
	return nil
}
