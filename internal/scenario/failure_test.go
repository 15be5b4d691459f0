package scenario

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"crystalnet/internal/cloud"
)

// mtbfSpec layers background MTBF faults under the driven steps: a long
// sleep lets the seeded failure timers fire, then convergence drives the
// recoveries home before the invariant sweep.
func mtbfSpec() *Spec {
	return tinySpec(
		Step{Op: OpSleep, Duration: Duration(30 * time.Minute)},
		Step{Op: OpWaitConverge},
		Step{Op: OpInjectVMFailure, Device: "tor-p0-0"},
		Step{Op: OpWaitConverge},
		Step{Op: OpSleep, Duration: Duration(30 * time.Minute)},
		Step{Op: OpWaitConverge},
	)
}

// TestMTBFCampaignSerialParallelIdentical is the failure-path chaos
// contract: a campaign with background MTBF faults layered on top of the
// injected sequences completes with zero lost faults, bounded alert
// growth, and byte-identical reports for any worker count.
func TestMTBFCampaignSerialParallelIdentical(t *testing.T) {
	base := mtbfSpec()
	cfg := CampaignConfig{
		N: 4, Seed: 99, FaultsPerRun: 2,
		MTBF:             2 * time.Hour,
		Retry:            cloud.RetryPolicy{MaxAttempts: 3, BootDeadline: 90 * time.Second},
		RecoveryDeadline: 30 * time.Minute,
	}

	cfg.Workers = 1
	serial, err := Chaos(base.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := Chaos(base.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.JSON(), par.JSON()) {
		t.Fatalf("MTBF campaign reports differ between 1 and 4 workers")
	}
	if serial.Passed+serial.Failed != cfg.N {
		t.Fatalf("campaign lost runs: %d + %d != %d", serial.Passed, serial.Failed, cfg.N)
	}
	background := 0
	for _, r := range serial.Runs {
		if r.PendingFaults != 0 {
			t.Fatalf("%s: %d faults lost:\n%s", r.Scenario, r.PendingFaults, r.JSON())
		}
		if !r.Passed {
			t.Fatalf("%s failed:\n%s", r.Scenario, r.JSON())
		}
		// Every alert must be a discrete recovery-lifecycle event, not an
		// unbounded repeat: with dedup in place a tiny run stays small.
		if len(r.Alerts) > 60 {
			t.Fatalf("%s: %d alerts — unbounded growth", r.Scenario, len(r.Alerts))
		}
		// Background faults raise the same failure alerts as injected ones;
		// any failure alert beyond the injected count came from MTBF.
		injected, failures := 0, 0
		for _, st := range r.Steps {
			if st.Op == string(OpInjectVMFailure) {
				injected++
			}
		}
		for _, a := range r.Alerts {
			if strings.Contains(a, "failed") {
				failures++
			}
		}
		if failures < injected {
			t.Fatalf("%s: %d injected faults but only %d failure alerts — a fault vanished",
				r.Scenario, injected, failures)
		}
		background += failures - injected
	}
	if background == 0 {
		t.Fatal("no background MTBF fault fired in any run; raise the sleep or lower MTBF")
	}
}

// TestChaosReuseRejectsMTBF: daemon failure timers cannot cross the shared
// checkpoint, so the combination must be an explicit error rather than a
// cryptic snapshot failure N runs in.
func TestChaosReuseRejectsMTBF(t *testing.T) {
	base := tinySpec(Step{Op: OpWaitConverge})
	_, err := Chaos(base, CampaignConfig{N: 2, Seed: 1, Reuse: true, MTBF: time.Hour})
	if err == nil || !strings.Contains(err.Error(), "MTBF") {
		t.Fatalf("Chaos(Reuse, MTBF) = %v, want MTBF incompatibility error", err)
	}
}

// TestLostFaultFailsRun ends a run with a fault still queued (injected
// while its VM was mid-reboot, never driven to convergence): the report
// must carry the pending count and fail, not pass silently.
func TestLostFaultFailsRun(t *testing.T) {
	sp := tinySpec(
		Step{Op: OpInjectVMFailure, Device: "tor-p0-0"},
		Step{Op: OpInjectVMFailure, Device: "tor-p0-0"},
	)
	rep, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PendingFaults != 1 {
		t.Fatalf("PendingFaults = %d, want 1", rep.PendingFaults)
	}
	if rep.Passed {
		t.Fatalf("run passed with a pending fault:\n%s", rep.JSON())
	}
	if !strings.Contains(rep.Steps[2].Detail, "queued VM failure") {
		t.Fatalf("second inject not reported as queued: %q", rep.Steps[2].Detail)
	}
	// Both steps themselves succeeded — only the lost fault fails the run.
	for _, st := range rep.Steps {
		if !st.Pass {
			t.Fatalf("step %d failed: %s", st.Index, st.Detail)
		}
	}
}

// TestFailurePathByteDeterminism runs the full hardening stack — boot
// supervision, recovery deadlines, background MTBF faults — twice with one
// seed and demands byte-identical reports: the retry layer draws all its
// jitter from the engine stream.
func TestFailurePathByteDeterminism(t *testing.T) {
	opts := Options{
		MTBF:             90 * time.Minute,
		Retry:            cloud.RetryPolicy{MaxAttempts: 2, BootDeadline: 60 * time.Second},
		RecoveryDeadline: 20 * time.Minute,
	}
	a, err := Run(mtbfSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mtbfSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatalf("failure-path runs diverged:\n%s\nvs\n%s", a.JSON(), b.JSON())
	}
	if a.PendingFaults != 0 {
		t.Fatalf("%d faults lost under the failure stack", a.PendingFaults)
	}
}

// TestBackToBackRecoveriesRestoreFIBs replays the reduced chaos sequence in
// testdata/back_to_back_recoveries.json: after two reload/rollback cycles
// and two VM recoveries, every FIB must match the initial baseline. It
// failed with 58 missing routes on the pod-0 ToRs while BGP messages of one
// session could be handled out of arrival order.
func TestBackToBackRecoveriesRestoreFIBs(t *testing.T) {
	sp, err := Load("testdata/back_to_back_recoveries.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("back-to-back recoveries did not restore forwarding state:\n%s", rep.JSON())
	}
}
