package store

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Layout assigns the trigger names of one class to the slots of
// Record.Trigs. The store knows no schema, and a trigger added, removed
// or reordered between restarts must still find its persisted state, so
// names — not declaration positions — are what persistence binds by;
// the layout interns each name a class's records have ever carried into
// the next free slot. It only ever grows: a slot, once assigned, keeps
// its name for the life of the store, so a record shorter than the
// layout simply never activated the later slots. Recovery interns the
// names it decodes, the engine resolves each trigger's slot once at
// RegisterClass, and both meet in the same table.
//
// The layout also owns what a rollback does with a slot: restore it from
// the before-image like the rest of the record, or — for the slots Keep
// marked — keep what the rolled-back transaction left in it (see
// Store.Restore). The marks are the registering engine's, not persisted.
//
// Its owner (SetOwner), opaque to the store, is the registering engine's
// class: a record reaches it in one load, with no lock and no lookup.
//
// Readers (every posting, through Len/Slot/Name, Record.Owner) take no lock:
// the table is immutable and replaced wholesale by Intern and Keep.
type Layout struct {
	mu    sync.Mutex // serializes the copy-on-write of Intern and Keep
	tab   atomic.Pointer[layoutTab]
	owner atomic.Value // nil until SetOwner: a class recovery interned but nobody registered
}

type layoutTab struct {
	names []string       // slot → name
	slots map[string]int // name → slot
	kept  []int          // slots marked by Keep
}

func newLayout() *Layout {
	l := &Layout{}
	l.tab.Store(&layoutTab{})
	return l
}

// Len returns the number of slots assigned so far.
func (l *Layout) Len() int { return len(l.tab.Load().names) }

// Name returns the trigger name of an assigned slot.
func (l *Layout) Name(slot int) string { return l.tab.Load().names[slot] }

// Slot returns the slot of name, if it has one.
func (l *Layout) Slot(name string) (int, bool) {
	s, ok := l.tab.Load().slots[name]
	return s, ok
}

// Intern returns the slot of name, assigning the next free one on first
// sight.
func (l *Layout) Intern(name string) int {
	if s, ok := l.Slot(name); ok {
		return s
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.tab.Load()
	if s, ok := cur.slots[name]; ok {
		return s
	}
	n := len(cur.names)
	next := &layoutTab{names: make([]string, n+1), slots: make(map[string]int, n+1), kept: cur.kept}
	copy(next.names, cur.names)
	next.names[n] = name
	for k, v := range cur.slots {
		next.slots[k] = v
	}
	next.slots[name] = n
	l.tab.Store(next)
	return n
}

// SetOwner sets the layout's owner, once, when its class is registered.
func (l *Layout) SetOwner(o any) { l.owner.Store(o) }

// Keep marks slot as surviving rollback: the automaton state of a
// whole-history-view trigger (paper §6), which has seen the events of an
// aborted transaction too.
func (l *Layout) Keep(slot int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.tab.Load()
	if slices.Contains(cur.kept, slot) {
		return
	}
	next := *cur
	next.kept = append(slices.Clip(cur.kept), slot)
	l.tab.Store(&next)
}

// Layout returns the slot layout of the named class, creating it on
// first sight. Like the layouts themselves the class table is
// copy-on-write, so Create pays one atomic load and one map probe.
func (s *Store) Layout(class string) *Layout {
	if l := (*s.layouts.Load())[class]; l != nil {
		return l
	}
	s.layoutMu.Lock()
	defer s.layoutMu.Unlock()
	cur := *s.layouts.Load()
	if l := cur[class]; l != nil {
		return l
	}
	next := make(map[string]*Layout, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	l := newLayout()
	next[class] = l
	s.layouts.Store(&next)
	return l
}
