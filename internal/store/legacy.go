package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"ode/internal/value"
)

// Decode-only support for the directories PR 13 and earlier wrote: a
// wal.log of length-prefixed gob frames bracketed by begin/commit markers
// and a snapshot.gob that is one gob value. Nothing here encodes. Open
// reads such files once through these structs and scan loop, unchanged
// from the commit that last wrote them, and immediately rewrites the
// directory in the current format (Store.legacy), so this file can be
// deleted whole once no such directory is left to open. The format has no
// checksum and encoding/gob sizes a decoded map from a count in the
// stream, so corrupting one byte of a legacy file can cost gigabytes at
// recovery — the reason it was replaced (codec.go).

// Legacy WAL frame operations.
const (
	opBegin byte = iota + 1
	opPut
	opDelete
	opCommit
	opPutN    // every dirty record of one transaction (frame.Recs)
	opFirings // the firings one transaction captured (frame.Firings)
)

type frame struct {
	Op      byte
	TxID    uint64
	OID     OID
	Rec     *wireRecord
	Recs    []*wireRecord
	Firings []FiringRecord
}

// wireRecord, wireTrig and wireValue are the gob shape of a record:
// trigger state keyed by name, a value with one exported field per
// payload. gob matches fields by name, so directories written through
// the even older exported types decode into these.
type wireRecord struct {
	OID      OID
	Class    string
	Fields   map[string]wireValue
	Triggers map[string]*wireTrig
}

type wireTrig struct {
	Active bool
	State  int
	// Params is the name-keyed copy of Dense that the oldest versions
	// wrote next to it; read only to refuse a log old enough to lack Dense.
	Params map[string]wireValue
	Dense  []wireValue
	Shadow []int
}

type wireValue struct {
	Kind int
	I    int64
	F    float64
	B    bool
	S    string
	T    time.Time
}

func (w wireValue) value() value.Value {
	switch value.Kind(w.Kind) {
	case value.KindInt:
		return value.Int(w.I)
	case value.KindFloat:
		return value.Float(w.F)
	case value.KindBool:
		return value.Bool(w.B)
	case value.KindString:
		return value.Str(w.S)
	case value.KindTime:
		return value.Time(w.T)
	case value.KindID:
		return value.ID(uint64(w.I))
	}
	return value.Null()
}

type snapshotImage struct {
	Next      OID
	Objects   map[OID]*wireRecord
	Firings   []FiringRecord
	FiringSeq uint64
}

// fromWire rebuilds a decoded record, interning its trigger names in
// the class layout.
func (s *Store) fromWire(w *wireRecord) (*Record, error) {
	if w == nil {
		return nil, errors.New("store: put frame or snapshot entry carries no record")
	}
	l := s.Layout(w.Class)
	fields := make(map[string]value.Value, len(w.Fields))
	for name, v := range w.Fields {
		fields[name] = v.value()
	}
	r := &Record{OID: w.OID, Class: w.Class, Fields: fields, layout: l}
	for name, wt := range w.Triggers {
		if wt == nil {
			continue
		}
		if len(wt.Params) != 0 && len(wt.Dense) != len(wt.Params) {
			return nil, fmt.Errorf("store: object %d trigger %s: %d named activation parameter(s) but %d in declared order (log predates dense parameters)",
				w.OID, name, len(wt.Params), len(wt.Dense))
		}
		slot := l.Intern(name)
		r.grow(l.Len()) // once per record, except while the layout is still learning names
		var params []value.Value
		for _, v := range wt.Dense {
			params = append(params, v.value())
		}
		r.Trigs[slot] = TrigState{Active: wt.Active, State: int32(wt.State), ext: newExt(params, wt.Shadow)}
	}
	return r, nil
}

// legacyScanWAL decodes the clean frame prefix of a legacy log image and
// says why it stopped short, if it did.
func legacyScanWAL(data []byte) (frames []frame, sc walScan, reason string) {
	total := int64(len(data))
	for len(data) > 0 {
		if len(data) < 4 {
			reason = fmt.Sprintf("%d-byte length-prefix fragment", len(data))
			break
		}
		n := binary.LittleEndian.Uint32(data[:4])
		if uint64(len(data)) < 4+uint64(n) {
			reason = fmt.Sprintf("frame promises %d body bytes, only %d present", n, len(data)-4)
			break
		}
		var fr frame
		if err := gob.NewDecoder(bytes.NewReader(data[4 : 4+uint64(n)])).Decode(&fr); err != nil {
			reason = fmt.Sprintf("undecodable frame body: %v", err)
			break
		}
		frames = append(frames, fr)
		data = data[4+uint64(n):]
		sc.cleanLen += 4 + int64(n)
	}
	sc.tornBytes = total - sc.cleanLen
	return frames, sc, reason
}

// legacyTxs turns the frames of a legacy log into transaction images, one
// per commit marker, in log order; frames whose commit marker never made
// it are dropped unconverted.
func (s *Store) legacyTxs(frames []frame) ([]txImage, error) {
	type pending struct {
		tx   txImage
		wire []*wireRecord
	}
	var txs []txImage
	open := map[uint64]*pending{} // begun, commit marker not seen yet
	for _, f := range frames {
		p := open[f.TxID]
		if p == nil {
			p = &pending{tx: txImage{txID: f.TxID}}
			open[f.TxID] = p
		}
		switch f.Op {
		case opPut:
			p.wire = append(p.wire, f.Rec)
		case opPutN:
			p.wire = append(p.wire, f.Recs...)
		case opDelete:
			p.tx.deleted = append(p.tx.deleted, f.OID)
		case opFirings:
			p.tx.firings = append(p.tx.firings, f.Firings...)
		case opCommit:
			for _, w := range p.wire {
				r, err := s.fromWire(w)
				if err != nil {
					return nil, err
				}
				p.tx.recs = append(p.tx.recs, r)
			}
			txs = append(txs, p.tx)
			delete(open, f.TxID)
		}
	}
	return txs, nil
}

// legacySnapshot decodes a legacy checkpoint into the heap it held, as
// one transaction image, and its allocator and feed positions.
func (s *Store) legacySnapshot(data []byte) (snap snapshotState, err error) {
	var img snapshotImage
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return snap, fmt.Errorf("store: decode snapshot: %w", err)
	}
	snap = snapshotState{firingSeq: img.FiringSeq}
	s.egress.push(img.Firings...)
	// gob writes an empty map as no map at all, and a snapshot without
	// one always loaded as no snapshot: allocator position not restored.
	if img.Objects != nil {
		snap.loaded, snap.next = true, img.Next
	}
	for _, w := range img.Objects {
		r, err := s.fromWire(w)
		if err != nil {
			return snap, err
		}
		if err := s.install(r); err != nil {
			return snap, err
		}
	}
	return snap, nil
}
