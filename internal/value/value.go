// Package value implements the dynamic typed values stored in object
// fields and passed as event parameters: the data substrate under the
// O++ object model. Values are small immutable tagged unions with the
// comparison and arithmetic semantics the mask expression language
// (internal/mask) evaluates over.
package value

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind discriminates the union.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindBool
	KindString
	KindTime
	KindID // object identity: a reference to a persistent object
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	case KindID:
		return "id"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a dynamically typed database value: 32 bytes, one of them a
// pointer. The zero Value is null. Only the payload of its Kind is set
// and every other byte is zero, so == on two Values is bitwise equality
// of their content (a NaN equals itself; Equal has the numeric rules).
type Value struct {
	Kind Kind
	zone [3]byte // time: 0 = UTC, else seconds east of UTC + zoneBias, little-endian
	nsec uint32  // time: nanoseconds within the second
	n    int64   // int, ID, float bits, bool (0 or 1), a time's Unix seconds
	s    string  // string
}

const (
	zoneBias = 1 << 23
	// MaxZoneOffset is the largest distance from UTC, in seconds, a time
	// value keeps; Time stores a time whose zone is further out in UTC.
	MaxZoneOffset = zoneBias - 1
)

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, n: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, n: int64(math.Float64bits(f))} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.n = 1
	}
	return v
}

// String returns a string value.
func Str(s string) Value { return Value{Kind: KindString, s: s} }

// Time returns a time value. It keeps what the store's codec keeps of a
// time: the instant to the nanosecond and the zone's offset from UTC at
// that instant, not the zone's name or a monotonic clock reading.
func Time(t time.Time) Value {
	v := Value{Kind: KindTime, nsec: uint32(t.Nanosecond()), n: t.Unix()}
	if t.Location() != time.UTC {
		if _, off := t.Zone(); -MaxZoneOffset <= off && off <= MaxZoneOffset {
			z := uint32(off + zoneBias)
			v.zone = [3]byte{byte(z), byte(z >> 8), byte(z >> 16)}
		}
	}
	return v
}

// ID returns an object-identity value.
func ID(oid uint64) Value { return Value{Kind: KindID, n: int64(oid)} }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsInt returns the integer payload; it panics unless Kind is KindInt.
func (v Value) AsInt() int64 {
	if v.Kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s", v.Kind))
	}
	return v.n
}

// AsFloat returns the numeric payload as float64, promoting integers.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindFloat:
		return math.Float64frombits(uint64(v.n))
	case KindInt:
		return float64(v.n)
	}
	panic(fmt.Sprintf("value: AsFloat on %s", v.Kind))
}

// AsBool returns the boolean payload; it panics unless Kind is KindBool.
func (v Value) AsBool() bool {
	if v.Kind != KindBool {
		panic(fmt.Sprintf("value: AsBool on %s", v.Kind))
	}
	return v.n != 0
}

// AsString returns the string payload; it panics unless Kind is
// KindString.
func (v Value) AsString() string {
	if v.Kind != KindString {
		panic(fmt.Sprintf("value: AsString on %s", v.Kind))
	}
	return v.s
}

// AsID returns the object identity payload; it panics unless Kind is
// KindID.
func (v Value) AsID() uint64 {
	if v.Kind != KindID {
		panic(fmt.Sprintf("value: AsID on %s", v.Kind))
	}
	return uint64(v.n)
}

// AsTime returns the time payload, in UTC or in an unnamed zone of the
// offset it was given with; it panics unless Kind is KindTime.
func (v Value) AsTime() time.Time {
	if v.Kind != KindTime {
		panic(fmt.Sprintf("value: AsTime on %s", v.Kind))
	}
	t := time.Unix(v.n, int64(v.nsec))
	if z := int(v.zone[0]) | int(v.zone[1])<<8 | int(v.zone[2])<<16; z != 0 {
		return t.In(time.FixedZone("", z-zoneBias))
	}
	return t.UTC()
}

// IsNumeric reports whether v is an int or a float.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "null"
	case KindInt:
		return fmt.Sprintf("%d", v.n)
	case KindFloat:
		// Decimal, never scientific (%g emits 1e+06): expression
		// renderings must re-lex, and the evlang/mask lexers accept
		// only digits '.' digits. Integral values keep a trailing ".0"
		// so they re-lex as floats; NaN/±Inf (unreachable from parsed
		// literals) pass through untouched.
		s := strconv.FormatFloat(v.AsFloat(), 'f', -1, 64)
		if !strings.Contains(s, ".") && !strings.ContainsAny(s, "NI") {
			s += ".0"
		}
		return s
	case KindBool:
		return fmt.Sprintf("%t", v.n != 0)
	case KindString:
		return fmt.Sprintf("%q", v.s)
	case KindTime:
		return v.AsTime().Format(time.RFC3339)
	case KindID:
		return fmt.Sprintf("@%d", uint64(v.n))
	default:
		return fmt.Sprintf("value(kind=%d)", int(v.Kind))
	}
}

// Equal reports deep equality. Int and float compare numerically
// (Int(2) equals Float(2.0)); otherwise kinds must match.
func (v Value) Equal(w Value) bool {
	if v.IsNumeric() && w.IsNumeric() {
		return v.AsFloat() == w.AsFloat()
	}
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindBool, KindID:
		return v.n == w.n
	case KindString:
		return v.s == w.s
	case KindTime:
		return v.n == w.n && v.nsec == w.nsec
	default:
		return false
	}
}

// Compare orders two values, returning -1, 0, or +1. Numeric values
// compare numerically with promotion; strings lexicographically; times
// chronologically. Other combinations return an error.
func Compare(v, w Value) (int, error) {
	switch {
	case v.IsNumeric() && w.IsNumeric():
		a, b := v.AsFloat(), w.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	case v.Kind == KindString && w.Kind == KindString:
		return strings.Compare(v.s, w.s), nil
	case v.Kind == KindTime && w.Kind == KindTime:
		if v.n != w.n {
			return cmp.Compare(v.n, w.n), nil
		}
		return cmp.Compare(v.nsec, w.nsec), nil
	default:
		return 0, fmt.Errorf("value: cannot compare %s with %s", v.Kind, w.Kind)
	}
}

// Arith applies a binary arithmetic operator (+, -, *, /, %) with the
// usual numeric promotion; + concatenates strings. Division by an
// integer zero and modulo on non-integers are errors.
func Arith(op byte, v, w Value) (Value, error) {
	if op == '+' && v.Kind == KindString && w.Kind == KindString {
		return Str(v.s + w.s), nil
	}
	if !v.IsNumeric() || !w.IsNumeric() {
		return Null(), fmt.Errorf("value: %c needs numeric operands, got %s and %s", op, v.Kind, w.Kind)
	}
	if v.Kind == KindInt && w.Kind == KindInt {
		a, b := v.n, w.n
		switch op {
		case '+':
			return Int(a + b), nil
		case '-':
			return Int(a - b), nil
		case '*':
			return Int(a * b), nil
		case '/':
			if b == 0 {
				return Null(), fmt.Errorf("value: integer division by zero")
			}
			return Int(a / b), nil
		case '%':
			if b == 0 {
				return Null(), fmt.Errorf("value: integer modulo by zero")
			}
			return Int(a % b), nil
		}
	}
	a, b := v.AsFloat(), w.AsFloat()
	switch op {
	case '+':
		return Float(a + b), nil
	case '-':
		return Float(a - b), nil
	case '*':
		return Float(a * b), nil
	case '/':
		return Float(a / b), nil
	case '%':
		return Null(), fmt.Errorf("value: modulo requires integers")
	}
	return Null(), fmt.Errorf("value: unknown operator %c", op)
}

// Neg negates a numeric value.
func Neg(v Value) (Value, error) {
	switch v.Kind {
	case KindInt:
		return Int(-v.n), nil
	case KindFloat:
		return Float(-v.AsFloat()), nil
	default:
		return Null(), fmt.Errorf("value: cannot negate %s", v.Kind)
	}
}
