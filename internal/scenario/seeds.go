package scenario

import (
	"repro/internal/spec"
	"repro/internal/trace"
)

// FuzzSeeds exports the adversarial shapes of the deterministic
// scenarios as multi-thread op sequences over the explorer's standard
// tree (/a, /a/b, /c with pre-created f0 files): each [][]trace.Entry is
// one seed, each inner slice one thread's program. The schedule fuzzer
// starts its corpus from these — they are the hand-distilled
// interleaving victims (Figure 1's stat-vs-rename duel, §3.3's
// helped-chain, Figure 8's deep-walk-vs-rename bypass probe) — and then
// mutates ops, schedules, and faults outward from them.
func FuzzSeeds() [][][]trace.Entry {
	e := func(op spec.Op, path string, path2 ...string) trace.Entry {
		a := spec.Args{Path: path}
		if len(path2) > 0 {
			a.Path2 = path2[0]
		}
		return trace.Entry{Op: op, Args: a}
	}
	return [][][]trace.Entry{
		// Figure 1: stats whose concrete walk can succeed while a rename
		// commits around them — the external-LP duel.
		{
			{e(spec.OpStat, "/a/f0"), e(spec.OpStat, "/a/b/f0")},
			{e(spec.OpRename, "/a", "/d"), e(spec.OpRename, "/d", "/a")},
		},
		// §3.3 helped chain: creates at two depths under the subtree a
		// rename moves; one rename may help both.
		{
			{e(spec.OpMknod, "/a/n0"), e(spec.OpStat, "/a/b/f0")},
			{e(spec.OpMkdir, "/a/b/n1"), e(spec.OpRmdir, "/a/b/n1")},
			{e(spec.OpRename, "/a", "/d")},
		},
		// Figure 8 probe: deep walks racing renames of their ancestors,
		// with a delete contending for the same victim.
		{
			{e(spec.OpStat, "/a/b/f0"), e(spec.OpUnlink, "/a/b/f0")},
			{e(spec.OpRename, "/a/b", "/c/m"), e(spec.OpRename, "/c/m", "/a/b")},
			{e(spec.OpReaddir, "/a/b")},
		},
		// Rename-vs-rename with crossing source/destination parents: the
		// LCA discipline's stress shape.
		{
			{e(spec.OpRename, "/a", "/c/x"), e(spec.OpRename, "/c/x", "/a")},
			{e(spec.OpRename, "/c", "/d"), e(spec.OpRename, "/d", "/c")},
			{e(spec.OpStat, "/c/f0")},
		},
		// Reader-vs-unlink duel: thread 0's lockless reads walk /a/b
		// while thread 1 unlinks and recreates their victim and thread 2
		// renames the whole directory away and back. Every mutation bumps
		// the sequence counter inside its critical section, so a fast-path
		// read overlapping one must fail validation and take the slow path;
		// the GC keeps the detached nodes it may still be walking alive.
		{
			{e(spec.OpStat, "/a/b/f0"), e(spec.OpReaddir, "/a/b")},
			{e(spec.OpUnlink, "/a/b/f0"), e(spec.OpMknod, "/a/b/f0")},
			{e(spec.OpRename, "/a/b", "/c/m"), e(spec.OpRename, "/c/m", "/a/b")},
		},
		// Prefix-shortcut duel: thread 0's first create walks /a/b and
		// caches the prefix; its second create wants to enter directly at
		// the cached /a/b while thread 1 renames /a away (detaching the
		// whole chain) and back. A shortcut admitted between the two
		// renames must see every stamped generation moved and fall back —
		// operating on the detached subtree is the violation this seed
		// hunts (run with prefix on).
		{
			{e(spec.OpMknod, "/a/b/n2"), e(spec.OpMknod, "/a/b/n3")},
			{e(spec.OpRename, "/a", "/d"), e(spec.OpRename, "/d", "/a")},
		},
	}
}
