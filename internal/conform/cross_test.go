package conform

import (
	"testing"

	"repro/internal/atomfs"
	"repro/internal/core"
	"repro/internal/fsapi"
	"repro/internal/memfs"
	"repro/internal/retryfs"
	"repro/internal/slowfs"
)

// TestCrossVolumeConform runs the cross-volume catalogue against a
// namespace built from two instances of every variant. AtomFS variants
// take the two-phase helped rename; the others take the generic
// copy+delete fallback — the observable semantics must be identical.
func TestCrossVolumeConform(t *testing.T) {
	variants := map[string]func() fsapi.FS{
		"atomfs":          func() fsapi.FS { return atomfs.New() },
		"atomfs-biglock":  func() fsapi.FS { return atomfs.New(atomfs.WithBigLock()) },
		"atomfs-fastpath": func() fsapi.FS { return atomfs.New(atomfs.WithFastPath()) },
		"atomfs-prefix":   func() fsapi.FS { return atomfs.New(atomfs.WithPrefixCache()) },
		"memfs":           func() fsapi.FS { return memfs.New() },
		"retryfs":         func() fsapi.FS { return retryfs.New() },
		"slowfs":          func() fsapi.FS { return slowfs.NewWithCost(memfs.New(), 10, 1) },
	}
	for name, mk := range variants {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			s := RunCross(tctx, name, mk)
			for _, f := range s.FailedCases() {
				t.Errorf("failed: %s", f)
			}
			t.Logf("%s", s)
		})
	}
}

// TestCrossVolumeMonitoredConforms runs the cross catalogue with both
// volumes of every namespace monitored: the two-phase protocol — both
// the commit and the abort legs the catalogue exercises — must produce
// zero violations on either monitor, and both ghost states must match
// their concrete trees at quiescence.
func TestCrossVolumeMonitoredConforms(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []atomfs.Option
	}{
		{"atomfs-monitored", nil},
		{"atomfs-fastpath-monitored", []atomfs.Option{atomfs.WithFastPath()}},
		{"atomfs-prefix-monitored", []atomfs.Option{atomfs.WithPrefixCache()}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var monitors []*core.Monitor
			s := RunCross(tctx, tc.name, func() fsapi.FS {
				mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
				monitors = append(monitors, mon)
				return atomfs.New(append([]atomfs.Option{atomfs.WithMonitor(mon)}, tc.opts...)...)
			})
			for _, f := range s.FailedCases() {
				t.Errorf("failed: %s", f)
			}
			crossCommits, crossAborts := 0, 0
			for _, mon := range monitors {
				for _, v := range mon.Violations() {
					t.Errorf("violation: %s", v)
				}
				if err := mon.Quiesce(); err != nil {
					t.Errorf("quiesce: %v", err)
				}
				st := mon.Stats()
				crossCommits += st.CrossCommits
				crossAborts += st.CrossAborts
			}
			if crossCommits == 0 || crossAborts == 0 {
				t.Errorf("catalogue did not exercise both protocol legs: commits=%d aborts=%d",
					crossCommits, crossAborts)
			}
		})
	}
}
