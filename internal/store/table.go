package store

import (
	"sync"
	"sync/atomic"
)

// table holds the objects. OIDs are base + k·stride and never reused,
// so OID base+k·stride is slot k, slot k%chunkSize of chunk k/chunkSize:
// its live record, its committed image (epoch.go) and its lock word
// (Store.LockWord). Chunks hang off a radix tree of fan-way nodes whose
// height grows with the largest index — one node up to 2^20 objects — so
// a far OID costs one path of nodes and one chunk, never a directory
// sized by its value. A lookup takes no lock and hashes nothing; a walk
// goes in ascending OID order. Growing the tree, installing a chunk and
// freeing one run under growMu. A slot is dead once its object can never
// exist again — its creation undone (Remove) or its deletion committed
// (publish) — and its image is then the tombstone. A chunk of dead slots
// is freed, and so is every node it leaves empty below the root, so what
// the table holds follows the objects it holds, not how many the store
// ever allocated.
type table struct {
	base, stride uint64
	root         atomic.Pointer[node]
	growMu       sync.Mutex
	live         atomic.Int64 // live records, for Count
}

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
	fanBits   = 10
	fan       = 1 << fanBits
	maxHeight = (64 - chunkBits + fanBits - 1) / fanBits // covers every uint64 index
)

type slot struct {
	live, img atomic.Pointer[Record]
	lock      atomic.Uint64
}

type chunk struct {
	slots [chunkSize]slot
	dead  atomic.Int32
}

// node is one level of the tree: at height 1 its entries are chunks,
// above that nodes one level lower. h never changes; n, the non-nil
// entries, is kept under growMu.
type node struct {
	h      uint
	n      int
	kids   [fan]atomic.Pointer[node]
	chunks [fan]atomic.Pointer[chunk]
}

var tombstone = &Record{}

// covers reports whether index k lies under n.
func (n *node) covers(k uint64) bool { return k>>(chunkBits+fanBits*n.h) == 0 }

// at returns the entry of n on index k's path.
func (n *node) at(k uint64) uint64 { return (k >> (chunkBits + fanBits*(n.h-1))) % fan }

// index returns oid's slot index; ok is false for an OID outside the
// store's residue class.
func (t *table) index(oid OID) (k uint64, ok bool) {
	d := uint64(oid) - t.base
	if uint64(oid) < t.base {
		return 0, false
	} else if t.stride == 1 {
		return d, true
	}
	k = d / t.stride
	return k, k*t.stride == d
}

// chunkOf returns index k's chunk, nil if it has none.
func (t *table) chunkOf(k uint64) *chunk {
	n := t.root.Load()
	if !n.covers(k) {
		return nil
	}
	for n.h > 1 {
		if n = n.kids[n.at(k)].Load(); n == nil {
			return nil
		}
	}
	return n.chunks[n.at(k)].Load()
}

// slot returns oid's slot, nil if it has none.
func (t *table) slot(oid OID) *slot {
	if k, ok := t.index(oid); ok {
		if c := t.chunkOf(k); c != nil {
			return &c.slots[k%chunkSize]
		}
	}
	return nil
}

// setLive installs r as oid's live record, or clears it for nil, keeps
// the count and returns the record it replaced. Installing makes the
// chunk, which cannot be a freed one: the slot is not dead.
func (t *table) setLive(oid OID, r *Record) (old *Record) {
	sl := t.slot(oid)
	if sl == nil && r != nil {
		sl = t.grow(oid)
	} else if sl == nil {
		return nil
	}
	if old = sl.live.Swap(r); old == nil && r != nil {
		t.live.Add(1)
	} else if old != nil && r == nil {
		t.live.Add(-1)
	}
	return old
}

// grow makes oid's chunk, the nodes on its path and, while the root does
// not reach it, a taller root over the old one.
func (t *table) grow(oid OID) *slot {
	k, _ := t.index(oid)
	t.growMu.Lock()
	defer t.growMu.Unlock()
	n := t.root.Load()
	for !n.covers(k) {
		up := &node{h: n.h + 1}
		if n.n > 0 {
			up.kids[0].Store(n)
			up.n = 1
		}
		t.root.Store(up)
		n = up
	}
	for n.h > 1 {
		sub := &n.kids[n.at(k)]
		if sub.Load() == nil {
			sub.Store(&node{h: n.h - 1})
			n.n++
		}
		n = sub.Load()
	}
	c := &n.chunks[n.at(k)]
	if c.Load() == nil {
		c.Store(new(chunk))
		n.n++
	}
	return &c.Load().slots[k%chunkSize]
}

// bury marks oid's slot dead and frees its chunk if it was the last
// living slot. It does nothing to a slot with a live record or an image,
// a dead one, or one not yet allocated (next is the allocator's position).
func (t *table) bury(oid, next OID) {
	sl := t.slot(oid)
	if sl == nil || oid >= next || sl.live.Load() != nil || !sl.img.CompareAndSwap(nil, tombstone) {
		return
	}
	k, _ := t.index(oid)
	if t.chunkOf(k).dead.Add(1) == chunkSize {
		t.growMu.Lock()
		t.free(k)
		t.growMu.Unlock()
	}
}

// free unlinks index k's chunk and every node below the root it leaves
// empty. The caller holds growMu.
func (t *table) free(k uint64) {
	root := t.root.Load()
	var path [maxHeight + 1]*node
	n := root
	for ; n.h > 1; n = n.kids[n.at(k)].Load() {
		path[n.h] = n
	}
	n.chunks[n.at(k)].Store(nil)
	for n.n--; n.n == 0 && n != root; n.n-- {
		n = path[n.h+1]
		n.kids[n.at(k)].Store(nil)
	}
}

// each calls fn on every slot of every chunk in ascending OID order.
func (t *table) each(fn func(oid OID, sl *slot)) { t.walk(t.root.Load(), 0, fn) }

// walk is each below n, whose first index is k.
func (t *table) walk(n *node, k uint64, fn func(oid OID, sl *slot)) {
	span := uint64(1) << (chunkBits + fanBits*(n.h-1))
	for i := uint64(0); i < fan; i++ {
		if n.h > 1 {
			if sub := n.kids[i].Load(); sub != nil {
				t.walk(sub, k+i*span, fn)
			}
		} else if c := n.chunks[i].Load(); c != nil {
			for j := range c.slots {
				fn(OID(t.base+(k+i*span+uint64(j))*t.stride), &c.slots[j])
			}
		}
	}
}
