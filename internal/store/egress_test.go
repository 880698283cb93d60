package store

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestFiringCellBytes pins what one firing costs resident in the feed:
// a cell of at most 40 bytes holding no pointer, so the collector never
// scans the log however long it grows.
func TestFiringCellBytes(t *testing.T) {
	n := unsafe.Sizeof(firingCell{})
	t.Logf("firingCell = %d B", n)
	if n > 40 {
		t.Fatalf("firingCell is %d bytes, budget 40", n)
	}
	if typ := reflect.TypeOf(firingCell{}); hasPointers(typ) {
		t.Fatalf("%v holds a pointer", typ)
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
}

// TestOutOfOrderResolve: a group-commit follower holding the higher
// reservation resolves first. Its records wait, invisible, at their
// place by Seq; when the lower reservation resolves, both become
// visible at once and the sink is handed them in Seq order.
func TestOutOfOrderResolve(t *testing.T) {
	s, _ := Open("")
	var sunk []uint64
	s.SetFiringSink(func(sp FiringSpan) {
		s.VisitFirings(sp.Lo, sp.Hi, func(i int, r FiringRecord) { sunk = append(sunk, r.Seq) })
		if sp.First != sunk[sp.Lo] || sp.Last != sunk[sp.Hi-1] {
			t.Errorf("span %+v, records %v", sp, sunk[sp.Lo:sp.Hi])
		}
	})
	resolve := func(lo uint64, n int) {
		recs := make([]FiringRecord, n)
		for i := range recs {
			seq := lo + uint64(i)
			recs[i] = FiringRecord{Seq: seq, OID: OID(10 * seq), Class: "c", Trigger: "t", Kind: "after k"}
		}
		s.egress.resolveOK(lo, recs)
	}
	resolve(s.egress.reserve(2), 2) // 1..2
	a := s.egress.reserve(2)        // 3..4
	b := s.egress.reserve(3)        // 5..7
	resolve(b, 3)
	if head := s.FiringSeq(); head != 2 {
		t.Fatalf("frontier %d with 3..4 pending, want 2", head)
	}
	if recs, _ := s.FiringsFrom(0, 0); len(recs) != 2 {
		t.Fatalf("%d records visible with 3..4 pending, want 2", len(recs))
	}
	resolve(a, 2)
	if head := s.FiringSeq(); head != 7 {
		t.Fatalf("frontier %d, want 7", head)
	}
	recs, _ := s.FiringsFrom(0, 0)
	for i, r := range recs {
		if want := uint64(i + 1); r.Seq != want || r.OID != OID(10*want) || r.Trigger != "t" {
			t.Fatalf("record %d is %+v, want seq %d", i, r, want)
		}
	}
	if len(recs) != 7 || !reflect.DeepEqual(sunk, []uint64{1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("log holds %d records, sink saw %v", len(recs), sunk)
	}
	if i, ok := s.FiringIndex(5); !ok || i != 4 {
		t.Fatalf("FiringIndex(5) = %d, %v", i, ok)
	}
	if _, ok := s.FiringIndex(8); ok {
		t.Fatal("FiringIndex found an unissued seq")
	}
}
