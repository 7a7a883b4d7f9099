package sweep

import (
	"testing"
)

// TestCatalogueSweep runs the full rename-vs-everything sweep: every
// single-preemption interleaving of every pair must verify cleanly.
func TestCatalogueSweep(t *testing.T) {
	totalSchedules, totalHelped := 0, 0
	for _, p := range Catalogue() {
		out := Run(p)
		for _, f := range out.Failures {
			t.Errorf("%s: %s", p.Name, f)
		}
		if out.Points == 0 {
			t.Errorf("%s: no instrumentation points found", p.Name)
		}
		if out.Schedules != out.Points {
			t.Errorf("%s: %d schedules for %d points", p.Name, out.Schedules, out.Points)
		}
		totalSchedules += out.Schedules
		totalHelped += out.Helped
		t.Logf("%s", out)
	}
	if totalHelped == 0 {
		t.Error("no schedule exercised helping; the sweep is not reaching external LPs")
	}
	t.Logf("total: %d schedules verified", totalSchedules)
}

// TestSingleScheduleDetail pins down one known-interesting schedule: the
// mkdir interrupted right before its LP (its deepest point with lock
// held) must be helped by the rename.
func TestSingleScheduleDetail(t *testing.T) {
	p := Catalogue()[1] // rename+mkdir
	points, err := countPoints(p.Setup, p.B)
	if err != nil || points < 4 {
		t.Fatalf("points = %d err = %v", points, err)
	}
	helpedAny := false
	for k := 1; k <= points; k++ {
		overlapped, helped, err := runSchedule(p, k)
		if err != nil {
			t.Fatalf("point %d: %v", k, err)
		}
		if helped && !overlapped {
			t.Errorf("point %d: helped without overlap?", k)
		}
		helpedAny = helpedAny || helped
	}
	if !helpedAny {
		t.Error("no point produced an external LP")
	}
}

// TestFig4cTripleSweep: every single-preemption-per-operation schedule of
// the recursive-helping triple verifies cleanly, and some schedules
// linearize two operations inside the outer rename (multi-helping).
func TestFig4cTripleSweep(t *testing.T) {
	out := RunTriple(Fig4cTriple())
	for _, f := range out.Failures {
		t.Errorf("%s", f)
	}
	if out.Schedules < 50 {
		t.Fatalf("only %d schedules", out.Schedules)
	}
	if out.Helped == 0 {
		t.Error("no schedule exercised multi-helping")
	}
	t.Logf("%s", out)
}
