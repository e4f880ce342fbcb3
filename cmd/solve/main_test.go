package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/quality"
)

// runReport runs one solve with args plus -report-out and returns the
// written run report with run's error. Every exit path must leave a
// report behind, so a missing file fails the test.
func runReport(t *testing.T, args ...string) (*quality.RunReport, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	o, err := parseOptions(append(args, "-report-out", path))
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	runErr := run(o)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%q wrote no run report (run error: %v): %v", args, runErr, err)
	}
	var rep quality.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decode run report: %v", err)
	}
	return &rep, runErr
}

// outcome is the deterministic part of a run report: the solver's
// result and, per recovery, the tier it took.
type outcome struct {
	iterations int
	converged  bool
	residual   float64 // compared bit for bit
	failures   int
	tiers      string // comma-separated, in failure order
}

// reportOutcome extracts the outcome from a report. Simulated runs
// count failures in the simulator's counter, since not every
// simulated failure leaves a recovery entry; injected runs recover
// every failure through the tier chain.
func reportOutcome(rep *quality.RunReport) outcome {
	tiers := make([]string, len(rep.Recoveries))
	for i, e := range rep.Recoveries {
		tiers[i] = e.Tier
	}
	o := outcome{
		iterations: rep.Run.Iterations,
		converged:  rep.Run.Converged,
		residual:   rep.Run.FinalResidual,
		failures:   len(rep.Recoveries),
		tiers:      strings.Join(tiers, ","),
	}
	for _, md := range rep.Metrics.Metrics {
		if md.Name == "sim_failures_total" {
			o.failures = int(md.Value)
		}
	}
	return o
}

func checkOutcome(t *testing.T, rep *quality.RunReport, want outcome) {
	t.Helper()
	got := reportOutcome(rep)
	if got.iterations != want.iterations || got.converged != want.converged ||
		math.Float64bits(got.residual) != math.Float64bits(want.residual) ||
		got.failures != want.failures || got.tiers != want.tiers {
		t.Errorf("outcome = %+v, want %+v", got, want)
	}
	if rep.Run.Exit != "ok" {
		t.Errorf("exit = %q, want ok", rep.Run.Exit)
	}
}

func TestSimulatedLossyJacobi(t *testing.T) {
	rep, err := runReport(t, "-method", "jacobi", "-grid", "8", "-scheme", "lossy", "-mtti", "200")
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, rep, outcome{iterations: 334, converged: true, residual: 2.196950545467797e-06,
		failures: 2, tiers: "checkpoint,checkpoint"})
}

func TestShardedRun(t *testing.T) {
	rep, err := runReport(t, "-method", "jacobi", "-grid", "8", "-scheme", "lossy", "-mtti", "200",
		"-shards", "4", "-ckptdir", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Run.Shards != 4 {
		t.Errorf("report shards = %d, want 4", rep.Run.Shards)
	}
	// Sharding changes the storage layout and the write price, never
	// the numerics: the trajectory matches the monolithic run.
	checkOutcome(t, rep, outcome{iterations: 334, converged: true, residual: 2.196950545467797e-06,
		failures: 2, tiers: "checkpoint,checkpoint"})
}

func TestInjectedTieredAsyncRun(t *testing.T) {
	rep, err := runReport(t, "-method", "cg", "-grid", "10", "-scheme", "lossy", "-recovery-tiers",
		"-async", "-quality", "-interval", "3",
		"-inject", "proc@4,abft+proc@7,storagewrite@8,abft+proc@11,proc@14")
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, rep, outcome{iterations: 20, converged: true, residual: 1.0057802959535954e-06, failures: 4,
		tiers: "abft,checkpoint,checkpoint,abft"})
	if len(rep.Checkpoints) == 0 {
		t.Error("-quality audited no checkpoints")
	}
}

func TestSetupErrorWritesReport(t *testing.T) {
	rep, err := runReport(t, "-method", "bogus")
	if err == nil || !strings.Contains(err.Error(), `unknown method "bogus"`) {
		t.Fatalf("err = %v, want unknown method", err)
	}
	if rep.Run.Exit != "error: "+err.Error() {
		t.Errorf("report exit = %q, want the error", rep.Run.Exit)
	}
}

func TestSchemeNoneWritesReport(t *testing.T) {
	rep, err := runReport(t, "-method", "cg", "-grid", "8", "-scheme", "none")
	if err != nil {
		t.Fatal(err)
	}
	checkOutcome(t, rep, outcome{iterations: 11, converged: true, residual: 3.825915660709402e-07})
}

func TestAdaptiveRejectedUnderInject(t *testing.T) {
	rep, err := runReport(t, "-method", "cg", "-grid", "8", "-recovery-tiers", "-adaptive",
		"-inject", "proc@4")
	if err == nil || !strings.Contains(err.Error(), "-adaptive") {
		t.Fatalf("err = %v, want -adaptive rejected under -inject", err)
	}
	if rep.Run.Exit != "error: "+err.Error() {
		t.Errorf("report exit = %q, want the error", rep.Run.Exit)
	}
}
