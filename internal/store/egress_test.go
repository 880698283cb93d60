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

// TestFiringSpanMayCrossABurnedGap: a span's sequence numbers need not
// be contiguous. A reservation burned while a lower one is pending
// (resolveFail without reclaim) leaves a gap that the span covering both
// neighbours spans, so a span's record count is Hi−Lo, never
// Last−First+1.
func TestFiringSpanMayCrossABurnedGap(t *testing.T) {
	s, _ := Open("")
	var spans []FiringSpan
	s.SetFiringSink(func(sp FiringSpan) { spans = append(spans, sp) })
	resolve := func(lo uint64, n int) {
		recs := make([]FiringRecord, n)
		for i := range recs {
			recs[i] = FiringRecord{Seq: lo + uint64(i), OID: 1, Class: "c", Trigger: "t", Kind: "after k"}
		}
		s.egress.resolveOK(lo, recs)
	}
	a := s.egress.reserve(2) // 1..2
	b := s.egress.reserve(2) // 3..4, burned
	c := s.egress.reserve(2) // 5..6
	s.egress.resolveFail(b, false)
	resolve(c, 2)
	resolve(a, 2)
	want := FiringSpan{Lo: 0, Hi: 4, First: 1, Last: 6}
	if len(spans) != 1 || spans[0] != want {
		t.Fatalf("spans %+v, want one %+v", spans, want)
	}
	if sp := spans[0]; uint64(sp.Hi-sp.Lo) == sp.Last-sp.First+1 {
		t.Fatalf("span %+v is contiguous", sp)
	}
}
