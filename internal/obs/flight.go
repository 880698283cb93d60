package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Flight is the event recorder: a fixed-size ring of recent pipeline
// events. The engine keeps one always on, so a crash or a debugging
// session can always reconstruct "what was the engine doing just now",
// and a second one as its trace while tracing is on. It is lock-free on the record path — one atomic cursor
// add plus a handful of atomic word stores per event, no allocation,
// no mutex — which is what lets the engine leave it on permanently
// without breaking the zero-alloc posting budget.
//
// Strings (class, trigger, kind names) never enter the ring: recorders
// pass uint16 IDs from an Interner and the names are resolved only at
// dump time. Every slot field is an atomic word, so concurrent
// recording and dumping is race-detector clean; a slot overwritten
// mid-read is detected by its sequence stamp and skipped rather than
// returned torn. If two writers lap the ring onto the same slot their
// field stores may interleave — the published event can then mix the
// two — which is the accepted imprecision of a best-effort recorder
// (it cannot happen unless one writer stalls for a full ring's worth
// of traffic).
type Flight struct {
	cursor atomic.Uint64
	mask   uint64
	slots  []flightSlot
	names  *Interner
}

// flightSlot is one ring entry, fully atomic. seq is 0 while a write
// is in progress and the 1-based event sequence once published.
type flightSlot struct {
	seq    atomic.Uint64
	packed atomic.Uint64 // stage | ok | class/trigger/kind IDs
	tx     atomic.Uint64
	oid    atomic.Uint64
	fromTo atomic.Uint64 // from (low 32) | to (high 32)
	at     atomic.Int64  // virtual-clock unix nanoseconds
	dur    atomic.Int64  // action latency ns (StageFire), batch size (StageEgress)
}

// packed layout: bits 0-15 kindID, 16-31 trigID, 32-47 classID,
// 48-55 stage, 56 ok.
func packFlight(stage Stage, ok bool, classID, trigID, kindID uint16) uint64 {
	p := uint64(kindID) | uint64(trigID)<<16 | uint64(classID)<<32 | uint64(stage)<<48
	if ok {
		p |= 1 << 56
	}
	return p
}

// DefaultFlightCapacity is used when NewFlight is given a non-positive
// capacity.
const DefaultFlightCapacity = 4096

// NewFlight returns a recorder retaining the last capacity events
// (rounded up to a power of two; <= 0 picks the default). names
// resolves interned IDs at dump time and must be the same table the
// recording call sites intern into.
func NewFlight(capacity int, names *Interner) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Flight{mask: uint64(n - 1), slots: make([]flightSlot, n), names: names}
}

// Record stores one event. It is safe for concurrent use, performs no
// allocation and takes no lock: callers pass interned IDs, never
// strings.
func (f *Flight) Record(stage Stage, atNs int64, txid, oid uint64,
	classID, trigID, kindID uint16, from, to int, ok bool, durNs int64) {
	seq := f.cursor.Add(1)
	s := &f.slots[(seq-1)&f.mask]
	s.seq.Store(0) // mark in progress; readers skip
	s.packed.Store(packFlight(stage, ok, classID, trigID, kindID))
	s.tx.Store(txid)
	s.oid.Store(oid)
	s.fromTo.Store(uint64(uint32(from)) | uint64(uint32(to))<<32)
	s.at.Store(atNs)
	s.dur.Store(durNs)
	s.seq.Store(seq) // publish
}

// Total reports how many events were ever recorded (including ones
// the ring has overwritten).
func (f *Flight) Total() uint64 { return f.cursor.Load() }

// Lapped reports whether the ring has overwritten an event, so that
// Events no longer reaches back to the first one recorded.
func (f *Flight) Lapped() bool { return f.cursor.Load() > uint64(len(f.slots)) }

// Names exposes the recorder's intern table.
func (f *Flight) Names() *Interner { return f.names }

// FlightEvent is one dumped recorder entry, JSON-ready. Part is the
// id of the partition whose engine recorded the event — stamped at
// dump time by the owner (each partition has its own recorder), so
// the record path stays a handful of atomic stores.
type FlightEvent struct {
	Seq     uint64 `json:"seq"`
	Part    int    `json:"part"`
	AtNs    int64  `json:"at_ns"`
	Stage   Stage  `json:"stage"`
	TxID    uint64 `json:"tx,omitempty"`
	OID     uint64 `json:"oid,omitempty"`
	Class   string `json:"class,omitempty"`
	Trigger string `json:"trigger,omitempty"`
	Kind    string `json:"kind,omitempty"`
	From    int    `json:"from"`
	To      int    `json:"to"`
	OK      bool   `json:"ok"`
	DurNs   int64  `json:"dur_ns,omitempty"`
	// N is an egress record's batch size, carried in the dur word.
	N int64 `json:"n,omitempty"`
}

// String renders the event as one line of text — sequence, stage,
// transaction, object, trigger, kind, then what the stage keeps in its
// other words — the one text form of a record (odesh's .trace show and
// history print it).
func (ev FlightEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5d %-9s", ev.Seq, ev.Stage)
	if ev.TxID != 0 {
		fmt.Fprintf(&b, " tx=%d", ev.TxID)
	}
	if ev.OID != 0 {
		fmt.Fprintf(&b, " @%d", ev.OID)
	}
	if ev.Trigger != "" {
		b.WriteString(" " + ev.Trigger)
	}
	if ev.Kind != "" {
		b.WriteString(" " + ev.Kind)
	}
	switch ev.Stage {
	case StageMask:
		fmt.Fprintf(&b, " bits=%#x→%#x ok=%v", ev.From, ev.To, ev.OK)
	case StageStep:
		fmt.Fprintf(&b, " %d→%d accept=%v", ev.From, ev.To, ev.OK)
	case StageFire:
		fmt.Fprintf(&b, " %s ok=%v", time.Duration(ev.DurNs), ev.OK)
	case StageTcomplete:
		fmt.Fprintf(&b, " round=%d fired=%v", ev.From, ev.OK)
	case StageBatch:
		fmt.Fprintf(&b, " n=%d", ev.From)
	case StageEgress:
		fmt.Fprintf(&b, " n=%d seq=%d..%d", ev.N, ev.From, ev.To)
	}
	return b.String()
}

// Events returns up to last recent events in chronological order
// (last <= 0 means the full retained window). Slots being overwritten
// during the scan are detected by their sequence stamps and skipped.
func (f *Flight) Events(last int) []FlightEvent {
	cur := f.cursor.Load()
	n := uint64(len(f.slots))
	if cur < n {
		n = cur
	}
	if last > 0 && uint64(last) < n {
		n = uint64(last)
	}
	out := make([]FlightEvent, 0, n)
	for seq := cur - n + 1; seq <= cur; seq++ {
		s := &f.slots[(seq-1)&f.mask]
		got := s.seq.Load()
		if got != seq {
			continue // overwritten or still being written
		}
		packed := s.packed.Load()
		ev := FlightEvent{
			Seq:   got,
			AtNs:  s.at.Load(),
			TxID:  s.tx.Load(),
			OID:   s.oid.Load(),
			DurNs: s.dur.Load(),
		}
		ft := s.fromTo.Load()
		if s.seq.Load() != seq {
			continue // torn: a writer lapped us mid-read
		}
		ev.Stage = Stage(packed >> 48 & 0xff)
		ev.OK = packed>>56&1 == 1
		ev.Class = f.names.Name(uint16(packed >> 32))
		ev.Trigger = f.names.Name(uint16(packed >> 16))
		ev.Kind = f.names.Name(uint16(packed))
		ev.From = int(int32(uint32(ft)))
		ev.To = int(int32(uint32(ft >> 32)))
		if ev.Stage == StageEgress {
			ev.N, ev.DurNs = ev.DurNs, 0
		}
		out = append(out, ev)
	}
	return out
}

// Interner maps strings to dense uint16 IDs so hot paths can record
// names without carrying string headers (and without allocating). ID 0
// is reserved for the empty string. The table is append-only and caps
// at 65535 distinct names; later strings all map to 0 — acceptable for
// its use (class/trigger/kind/timer names, a bounded registry).
type Interner struct {
	mu    sync.Mutex
	ids   map[string]uint16
	names []string
}

// NewInterner returns an empty table.
func NewInterner() *Interner {
	return &Interner{ids: map[string]uint16{"": 0}, names: []string{""}}
}

// Intern returns the ID of s, assigning one on first sight.
func (in *Interner) Intern(s string) uint16 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return id
	}
	if len(in.names) > 0xffff {
		return 0
	}
	id := uint16(len(in.names))
	in.ids[s] = id
	in.names = append(in.names, s)
	return id
}

// Name resolves an ID back to its string ("" for unknown IDs).
func (in *Interner) Name(id uint16) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if int(id) < len(in.names) {
		return in.names[id]
	}
	return ""
}
