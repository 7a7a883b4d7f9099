package spec

import (
	"fmt"
	"sort"
)

// EffectKind enumerates the micro-operations of §5.3 (the paper's OPins,
// OPcreat, ... family) that an Aop applies to the abstract state.
type EffectKind uint8

// Micro-operations.
const (
	EffIns   EffectKind = iota + 1 // link Name -> Ino inserted into Parent
	EffDel                         // link Name -> Ino removed from Parent
	EffCreat                       // inode Ino created
	EffFree                        // inode Ino freed (Node holds its last content)
	EffWrite                       // file Ino bytes [Off, Off+len) overwritten; OldData/OldSize restore it
	EffTrunc                       // file Ino resized; OldData restores it
)

var effectNames = map[EffectKind]string{
	EffIns: "OPins", EffDel: "OPdel", EffCreat: "OPcreat",
	EffFree: "OPfree", EffWrite: "OPwrite", EffTrunc: "OPtrunc",
}

func (k EffectKind) String() string {
	if s, ok := effectNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OP(%d)", uint8(k))
}

// Effect records one micro-operation together with enough information to
// undo it. Effects are recorded in the per-thread Descriptor when an
// operation is helped (§4.3) and consumed by Rollback to establish the
// abstract-concrete relation (§4.4).
type Effect struct {
	Kind    EffectKind
	Parent  Inum   // EffIns, EffDel
	Name    string // EffIns, EffDel
	Ino     Inum
	Node    *ANode // EffFree: content at free time
	Off     int64  // EffWrite
	OldData []byte // EffWrite: overwritten window; EffTrunc: full old data
	OldSize int64  // EffWrite: old file length
}

func (e Effect) String() string {
	switch e.Kind {
	case EffIns, EffDel:
		return fmt.Sprintf("%s(%d,%q,%d)", e.Kind, e.Parent, e.Name, e.Ino)
	default:
		return fmt.Sprintf("%s(%d)", e.Kind, e.Ino)
	}
}

// Touches reports whether the effect modified inode ino. The roll-back
// search of §4.4 collects, per inode, the effects that touched it.
func (e Effect) Touches(ino Inum) bool {
	switch e.Kind {
	case EffIns, EffDel:
		return e.Parent == ino
	default:
		return e.Ino == ino
	}
}

// undo reverts the effect on fs. It panics on states the effect cannot
// have produced — rollback of a mismatched effect list is a monitor bug.
func (e Effect) undo(fs *AFS) {
	switch e.Kind {
	case EffIns:
		p := fs.Imap[e.Parent]
		if p == nil || p.Links[e.Name] != e.Ino {
			panic(fmt.Sprintf("rollback: cannot undo %s", e))
		}
		delete(fs.own(e.Parent, p).Links, e.Name)
	case EffDel:
		p := fs.Imap[e.Parent]
		if p == nil {
			panic(fmt.Sprintf("rollback: cannot undo %s", e))
		}
		fs.own(e.Parent, p).Links[e.Name] = e.Ino
	case EffCreat:
		if _, ok := fs.Imap[e.Ino]; !ok {
			panic(fmt.Sprintf("rollback: cannot undo %s", e))
		}
		delete(fs.Imap, e.Ino)
	case EffFree:
		n := e.Node.Clone()
		n.gen = fs.gen
		fs.Imap[e.Ino] = n
	case EffWrite:
		n := fs.Imap[e.Ino]
		if n == nil || n.Kind != KindFile {
			panic(fmt.Sprintf("rollback: cannot undo %s", e))
		}
		data := append([]byte(nil), n.Data...)
		if int64(len(data)) > e.OldSize {
			data = data[:e.OldSize]
		}
		copy(data[min(e.Off, int64(len(data))):], e.OldData)
		fs.own(e.Ino, n).Data = data
	case EffTrunc:
		n := fs.Imap[e.Ino]
		if n == nil || n.Kind != KindFile {
			panic(fmt.Sprintf("rollback: cannot undo %s", e))
		}
		fs.own(e.Ino, n).Data = append([]byte(nil), e.OldData...)
	default:
		panic(fmt.Sprintf("rollback: unknown effect %s", e))
	}
}

// Rollback returns a copy of fs with effects undone, last-applied first.
// Per §4.4, the caller passes the effects of helped-but-unfinished Aops in
// Helplist order; rolling them back recovers the abstract state the
// concrete state should currently match.
func Rollback(fs *AFS, effects []Effect) *AFS {
	out := fs.Clone()
	for i := len(effects) - 1; i >= 0; i-- {
		effects[i].undo(out)
	}
	return out
}

func sortStrings(s []string) { sort.Strings(s) }
