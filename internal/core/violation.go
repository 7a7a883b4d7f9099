package core

import "fmt"

// ViolationKind names the invariant or proof obligation a violation broke.
// The kinds map one-to-one onto Table 1 of the paper plus the refinement
// (return-value matching) obligation of the simulation proof.
type ViolationKind uint8

// Violation kinds.
const (
	// ViolRefinement: a concrete operation returned a result different from
	// the one its abstract operation produced at its (possibly external)
	// linearization point — the simulation's return-value obligation.
	ViolRefinement ViolationKind = iota + 1
	// ViolGoodAFS: the abstract file system stopped being a well-formed
	// tree (Table 1, "GoodAFS").
	ViolGoodAFS
	// ViolLastLocked: the last inode of a thread's LockPath is not locked
	// by that thread in the concrete FS (Table 1, "Last-locked-lockpath").
	ViolLastLocked
	// ViolHelplist: an operation is marked helped without being in the
	// Helplist or vice versa (Table 1, "Helplist-consistency").
	ViolHelplist
	// ViolFutLockPath: a helped thread acquired locks diverging from its
	// FutLockPath (Table 1, "Future-lockpath-validness").
	ViolFutLockPath
	// ViolLockPathCycle: the linearize-before constraints among helped
	// threads form a cycle (Table 1, "Lockpath-wellformed").
	ViolLockPathCycle
	// ViolUnhelpedBypass: an unhelped operation bypassed a helped one
	// (Table 1, "Unhelped-non-bypassable"; §5.1 criterion).
	ViolUnhelpedBypass
	// ViolHelpedBypass: a helped operation bypassed one helped before it
	// (Table 1, "Helped-non-bypassable").
	ViolHelpedBypass
	// ViolRelation: the abstract-concrete relation failed to hold after
	// rolling back helped effects (Table 1, "Abstract-concrete-relation").
	ViolRelation
	// ViolCancellation: the cancellation/helping interaction rule broke —
	// an aborted operation acquired a lock, reached an LP, leaked a lock at
	// End, or returned something other than a context error; or an
	// operation whose LP had already committed (fixed or helped) returned a
	// context error instead of its linearized result. Checked on every
	// transition, like the Table-1 invariants.
	ViolCancellation
	// ViolProtocol: the file system misused the monitor API (e.g. lock
	// events after the LP without a matching walk).
	ViolProtocol
	// ViolShortcut: a prefix-cache shortcut entry broke its obligations —
	// the cached chain failed to resolve in the abstract state even though
	// the stamped detach generations validated, the entry inode's lock is
	// not concretely held by the entering thread, or the chain itself was
	// malformed. The generation protocol, not just one operation, is what
	// such a violation indicts.
	ViolShortcut
	// ViolCross: the two-phase cross-volume protocol was misused — a
	// prepare on a read-only session, after the LP, or on a record not
	// idle; a commit or abort on a record not prepared; a source that
	// linearized some other way while its record was prepared; or a
	// source session that Ended with its record still prepared (a leaked
	// intent the destination could still commit against).
	ViolCross
)

var violationNames = map[ViolationKind]string{
	ViolRefinement:     "refinement",
	ViolGoodAFS:        "good-afs",
	ViolLastLocked:     "last-locked-lockpath",
	ViolHelplist:       "helplist-consistency",
	ViolFutLockPath:    "future-lockpath-validness",
	ViolLockPathCycle:  "lockpath-wellformed",
	ViolUnhelpedBypass: "unhelped-non-bypassable",
	ViolHelpedBypass:   "helped-non-bypassable",
	ViolRelation:       "abstract-concrete-relation",
	ViolCancellation:   "cancellation-consistency",
	ViolProtocol:       "protocol",
	ViolShortcut:       "shortcut-entry",
	ViolCross:          "cross-volume",
}

func (k ViolationKind) String() string {
	if s, ok := violationNames[k]; ok {
		return s
	}
	return fmt.Sprintf("violation(%d)", uint8(k))
}

// Violation describes one detected invariant or refinement failure.
type Violation struct {
	Kind ViolationKind
	Tid  uint64
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s (t%d): %s", v.Kind, v.Tid, v.Msg)
}
