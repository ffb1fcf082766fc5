package core

import (
	"maps"
	"sync"
	"sync/atomic"
)

// Label interning — the symbol-table half of the zero-allocation record
// plane.
//
// Every label name that ever crosses the coordination layer is interned to a
// small integer once; records, shapes and the compiled routing/filter
// artifacts all speak label ids afterwards, so the hot path never hashes a
// string.  The table is process-global and append-only: a label id, once
// assigned, is stable for the life of the process, which is what lets
// shapes (shape.go) and the per-node compiled programs cache slot indices
// by id.  Compile pre-interns every label a plan can carry (its per-Plan
// symbol table is a view onto this table), so steady-state record traffic
// only ever takes the lock-free read path below; labels of out-of-plan
// dynamic shapes intern on first sight through the slow path.
//
// Reads go through an atomically published immutable snapshot
// (copy-on-write), so lookup is one map access with no locking; writers —
// rare by construction — serialize on a mutex and publish a fresh snapshot.

// labelID identifies one interned label name.  Field and tag labels with
// the same name share an id: the field/tag distinction lives in the shape,
// not the symbol table.
type labelID int32

// internState is one immutable snapshot of the symbol table; a label's id is
// the table's size when it entered.
type internState struct{ byName map[string]labelID }

var (
	internMu   sync.Mutex
	internSnap atomic.Pointer[internState]
)

func init() {
	internSnap.Store(&internState{byName: map[string]labelID{}})
}

// internLabel returns the id for a name, interning it if new.
func internLabel(name string) labelID {
	if id, ok := internSnap.Load().byName[name]; ok {
		return id
	}
	internMu.Lock()
	defer internMu.Unlock()
	s := internSnap.Load()
	if id, ok := s.byName[name]; ok {
		return id
	}
	next := &internState{byName: make(map[string]labelID, len(s.byName)+1)}
	maps.Copy(next.byName, s.byName)
	id := labelID(len(s.byName))
	next.byName[name] = id
	internSnap.Store(next)
	return id
}
