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

// TestAllVariantsConform runs the full catalogue against every file system
// implementation; only the unsupported-feature probes may fail.
func TestAllVariantsConform(t *testing.T) {
	variants := map[string]func() fsapi.FS{
		"atomfs":          func() fsapi.FS { return atomfs.New() },
		"atomfs-biglock":  func() fsapi.FS { return atomfs.New(atomfs.WithBigLock()) },
		"atomfs-fastpath": func() fsapi.FS { return atomfs.New(atomfs.WithFastPath()) },
		"memfs":           func() fsapi.FS { return memfs.New() },
		"retryfs":         func() fsapi.FS { return retryfs.New() },
		"slowfs":          func() fsapi.FS { return slowfs.NewWithCost(memfs.New(), 10, 1) },
	}
	for name, mk := range variants {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			s := Run(tctx, name, mk)
			for _, f := range s.FailedCases() {
				t.Errorf("failed: %s", f)
			}
			if s.UnsupportedFail != 6 {
				t.Errorf("unsupported probes failing = %d, want 6", s.UnsupportedFail)
			}
			t.Logf("%s", s)
		})
	}
}

// TestMonitoredAtomFSConforms runs the catalogue on a monitored AtomFS —
// with and without the lockless fast path — and requires zero CRL-H
// violations across every case.
func TestMonitoredAtomFSConforms(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []atomfs.Option
	}{
		{"atomfs-monitored", nil},
		{"atomfs-fastpath-monitored", []atomfs.Option{atomfs.WithFastPath()}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var monitors []*core.Monitor
			s := Run(tctx, tc.name, func() fsapi.FS {
				mon := core.NewMonitor(core.Config{CheckGoodAFS: true})
				monitors = append(monitors, mon)
				return atomfs.New(append([]atomfs.Option{atomfs.WithMonitor(mon)}, tc.opts...)...)
			})
			for _, f := range s.FailedCases() {
				t.Errorf("failed: %s", f)
			}
			for _, mon := range monitors {
				for _, v := range mon.Violations() {
					t.Errorf("violation: %s", v)
				}
				if err := mon.Quiesce(); err != nil {
					t.Errorf("quiesce: %v", err)
				}
			}
		})
	}
}

func TestCatalogueShape(t *testing.T) {
	cases := Cases()
	if len(cases) < 80 {
		t.Fatalf("catalogue has only %d cases", len(cases))
	}
	groups := map[string]int{}
	names := map[string]bool{}
	for _, c := range cases {
		groups[c.Group]++
		key := c.Group + "/" + c.Name
		if names[key] {
			t.Errorf("duplicate case %s", key)
		}
		names[key] = true
	}
	for _, g := range []string{"create", "remove", "io", "readdir", "rename", "stat", "differential", "unsupported"} {
		if groups[g] == 0 {
			t.Errorf("group %s empty", g)
		}
	}
}

func TestSummaryString(t *testing.T) {
	s := Run(tctx, "memfs", func() fsapi.FS { return memfs.New() })
	if s.Pass == 0 || s.Fail != s.UnsupportedFail {
		t.Fatalf("summary: %s (failures: %v)", s, s.FailedCases())
	}
}
