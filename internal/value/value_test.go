package value

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() || Null().Kind != KindNull {
		t.Fatal("Null not null")
	}
	if Int(7).AsInt() != 7 {
		t.Fatal("Int roundtrip")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Fatal("Float roundtrip")
	}
	if Int(2).AsFloat() != 2.0 {
		t.Fatal("Int promotes to float")
	}
	if !Bool(true).AsBool() {
		t.Fatal("Bool roundtrip")
	}
	if Str("x").AsString() != "x" {
		t.Fatal("Str roundtrip")
	}
	if ID(42).AsID() != 42 {
		t.Fatal("ID roundtrip")
	}
	now := time.Unix(1000, 0)
	if !Time(now).AsTime().Equal(now) {
		t.Fatal("Time roundtrip")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := map[string]func(){
		"AsInt on string":  func() { Str("x").AsInt() },
		"AsBool on int":    func() { Int(1).AsBool() },
		"AsFloat on bool":  func() { Bool(true).AsFloat() },
		"AsString on int":  func() { Int(1).AsString() },
		"AsID on float":    func() { Float(1).AsID() },
		"AsTime on string": func() { Str("t").AsTime() },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEqual(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Fatal("numeric cross-kind equality")
	}
	if Int(2).Equal(Str("2")) {
		t.Fatal("int equals string")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Fatal("string equality")
	}
	if !Null().Equal(Null()) {
		t.Fatal("null equality")
	}
	if !ID(3).Equal(ID(3)) || ID(3).Equal(ID(4)) {
		t.Fatal("id equality")
	}
	if ID(3).Equal(Int(3)) {
		t.Fatal("id must not equal int")
	}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Float(2.5), Int(2), 1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Time(time.Unix(1, 0)), Time(time.Unix(2, 0)), -1},
	} {
		got, err := Compare(tc.a, tc.b)
		if err != nil || got != tc.want {
			t.Fatalf("Compare(%v,%v) = %d, %v; want %d", tc.a, tc.b, got, err, tc.want)
		}
	}
	if _, err := Compare(Int(1), Str("a")); err == nil {
		t.Fatal("cross-kind compare should error")
	}
	if _, err := Compare(Bool(true), Bool(false)); err == nil {
		t.Fatal("bool compare should error")
	}
}

func TestArith(t *testing.T) {
	check := func(op byte, a, b, want Value) {
		t.Helper()
		got, err := Arith(op, a, b)
		if err != nil || !got.Equal(want) || got.Kind != want.Kind {
			t.Fatalf("Arith(%c,%v,%v) = %v, %v; want %v", op, a, b, got, err, want)
		}
	}
	check('+', Int(2), Int(3), Int(5))
	check('-', Int(2), Int(3), Int(-1))
	check('*', Int(4), Int(3), Int(12))
	check('/', Int(7), Int(2), Int(3))
	check('%', Int(7), Int(2), Int(1))
	check('+', Int(2), Float(0.5), Float(2.5))
	check('/', Float(1), Float(2), Float(0.5))
	check('+', Str("ab"), Str("cd"), Str("abcd"))

	for _, bad := range []struct {
		op   byte
		a, b Value
	}{
		{'/', Int(1), Int(0)},
		{'%', Int(1), Int(0)},
		{'%', Float(1), Float(2)},
		{'+', Int(1), Str("x")},
		{'-', Bool(true), Int(1)},
		{'?', Int(1), Int(1)},
	} {
		if _, err := Arith(bad.op, bad.a, bad.b); err == nil {
			t.Fatalf("Arith(%c,%v,%v) should error", bad.op, bad.a, bad.b)
		}
	}
}

func TestNeg(t *testing.T) {
	if v, err := Neg(Int(3)); err != nil || v.AsInt() != -3 {
		t.Fatal("neg int")
	}
	if v, err := Neg(Float(2.5)); err != nil || v.AsFloat() != -2.5 {
		t.Fatal("neg float")
	}
	if _, err := Neg(Str("x")); err == nil {
		t.Fatal("neg string should error")
	}
}

func TestStringRendering(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		want string
	}{
		{Null(), "null"},
		{Int(3), "3"},
		{Float(2.5), "2.5"},
		{Bool(true), "true"},
		{Str("hi"), `"hi"`},
		{ID(9), "@9"},
	} {
		if got := tc.v.String(); got != tc.want {
			t.Fatalf("String(%v) = %q want %q", tc.v.Kind, got, tc.want)
		}
	}
}

func TestValueIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("a Value is %d bytes, want 32", n)
	}
}

// TestStructEqualityIsBitwise: == is what the store's dirty check uses,
// Equal what masks use. A NaN is == to itself and not Equal to itself;
// the two zeros are Equal and not ==.
func TestStructEqualityIsBitwise(t *testing.T) {
	nan, negZero := Float(math.NaN()), Float(math.Copysign(0, -1))
	if nan != nan || nan.Equal(nan) {
		t.Fatalf("NaN: == %v (want true), Equal %v (want false)", nan == nan, nan.Equal(nan))
	}
	if negZero == Float(0) || !negZero.Equal(Float(0)) {
		t.Fatal("-0 and +0 must differ under == and be Equal")
	}
	if Bool(true) != Bool(true) || Bool(true) == Bool(false) || Str("a") != Str("a") || ID(1) == Int(1) {
		t.Fatal("== disagrees with content")
	}
}

// timeCases are the times whose fidelity the codec promises: instant to
// the nanosecond and offset from UTC, in every zone shape.
func timeCases() map[string]time.Time {
	at := time.Date(2024, 2, 29, 23, 59, 58, 123456789, time.UTC)
	return map[string]time.Time{
		"utc":             at,
		"local":           at.In(time.Local),
		"whole hour":      at.In(time.FixedZone("CET", 3600)),
		"+05:45":          at.In(time.FixedZone("", 5*3600+45*60)),
		"odd seconds":     at.In(time.FixedZone("LMT", -(4*3600 + 56*60 + 2))),
		"fixed zero":      at.In(time.FixedZone("", 0)),
		"zero time":       {},
		"year 9999":       time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
		"last nanosecond": time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", -3600)),
		"monotonic":       time.Now(),
	}
}

func TestTimeFidelity(t *testing.T) {
	for name, in := range timeCases() {
		v := Time(in)
		out := v.AsTime()
		_, wantOff := in.Zone()
		_, gotOff := out.Zone()
		if !out.Equal(in) || out.Nanosecond() != in.Nanosecond() || gotOff != wantOff ||
			(out.Location() == time.UTC) != (in.Location() == time.UTC) {
			t.Errorf("%s: %v came back as %v", name, in, out)
		}
		if got, want := v.String(), in.Format(time.RFC3339); got != want {
			t.Errorf("%s: String() = %s, want %s", name, got, want)
		}
		if again := Time(out); again != v {
			t.Errorf("%s: Time(AsTime()) = %#v, want %#v", name, again, v)
		}
		if out != out.Round(0) {
			t.Errorf("%s: a monotonic reading survived", name)
		}
	}
	if !Time(time.Time{}).AsTime().IsZero() {
		t.Error("the zero time did not come back zero")
	}
	// A zone further from UTC than a value keeps: the instant survives, in UTC.
	far := time.Unix(0, 0).In(time.FixedZone("", MaxZoneOffset+1))
	if got := Time(far).AsTime(); !got.Equal(far) || got.Location() != time.UTC {
		t.Errorf("out-of-range zone: %v came back as %v", far, got)
	}
	if c, err := Compare(Time(time.Unix(5, 1)), Time(time.Unix(5, 2).In(time.FixedZone("", 7200)))); err != nil || c != -1 {
		t.Errorf("Compare orders by instant: got %d, %v", c, err)
	}
}

func TestAsTimeUTCAllocatesNothing(t *testing.T) {
	v := Time(time.Date(2024, 1, 2, 3, 4, 5, 6, time.UTC))
	var sink time.Time
	if n := testing.AllocsPerRun(100, func() { sink = v.AsTime() }); n != 0 {
		t.Fatalf("AsTime on a UTC value allocates %.0f object(s)", n)
	}
	_ = sink
}

// TestArithProperties checks ring-ish laws on int arithmetic through
// testing/quick.
func TestArithProperties(t *testing.T) {
	commutative := func(a, b int32) bool {
		x, _ := Arith('+', Int(int64(a)), Int(int64(b)))
		y, _ := Arith('+', Int(int64(b)), Int(int64(a)))
		return x.Equal(y)
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Error(err)
	}
	compareAntisym := func(a, b int32) bool {
		x, _ := Compare(Int(int64(a)), Int(int64(b)))
		y, _ := Compare(Int(int64(b)), Int(int64(a)))
		return x == -y
	}
	if err := quick.Check(compareAntisym, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRenderingTimeAndUnknownKinds(t *testing.T) {
	ts := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	if got := Time(ts).String(); got != "2026-07-04T12:00:00Z" {
		t.Fatalf("time string %q", got)
	}
	weird := Value{Kind: Kind(42)}
	if got := weird.String(); got != "value(kind=42)" {
		t.Fatalf("unknown kind string %q", got)
	}
	if got := Kind(42).String(); got != "kind(42)" {
		t.Fatalf("unknown kind name %q", got)
	}
}

func TestEqualUnknownKindsNeverEqual(t *testing.T) {
	a := Value{Kind: Kind(42)}
	b := Value{Kind: Kind(42)}
	if a.Equal(b) {
		t.Fatal("values of unknown kinds must not compare equal")
	}
}
