// Package value implements the dynamic typed values stored in object
// fields and passed as event parameters: the data substrate under the
// O++ object model. Values are small immutable tagged unions with the
// comparison and arithmetic semantics the mask expression language
// (internal/mask) evaluates over.
package value

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind discriminates the union.
type Kind int

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

// Value is a dynamically typed database value. The zero Value is null.
// Fields are exported for the store's codecs (the legacy one is
// encoding/gob); treat values as immutable.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	B    bool
	S    string
	T    time.Time
}

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// String returns a string value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Time returns a time value.
func Time(t time.Time) Value { return Value{Kind: KindTime, T: t} }

// ID returns an object-identity value.
func ID(oid uint64) Value { return Value{Kind: KindID, I: int64(oid)} }

// IsNull reports whether v is null.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsInt returns the integer payload; it panics unless Kind is KindInt.
func (v Value) AsInt() int64 {
	if v.Kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s", v.Kind))
	}
	return v.I
}

// AsFloat returns the numeric payload as float64, promoting integers.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindFloat:
		return v.F
	case KindInt:
		return float64(v.I)
	}
	panic(fmt.Sprintf("value: AsFloat on %s", v.Kind))
}

// AsBool returns the boolean payload; it panics unless Kind is KindBool.
func (v Value) AsBool() bool {
	if v.Kind != KindBool {
		panic(fmt.Sprintf("value: AsBool on %s", v.Kind))
	}
	return v.B
}

// AsString returns the string payload; it panics unless Kind is
// KindString.
func (v Value) AsString() string {
	if v.Kind != KindString {
		panic(fmt.Sprintf("value: AsString on %s", v.Kind))
	}
	return v.S
}

// AsID returns the object identity payload; it panics unless Kind is
// KindID.
func (v Value) AsID() uint64 {
	if v.Kind != KindID {
		panic(fmt.Sprintf("value: AsID on %s", v.Kind))
	}
	return uint64(v.I)
}

// AsTime returns the time payload; it panics unless Kind is KindTime.
func (v Value) AsTime() time.Time {
	if v.Kind != KindTime {
		panic(fmt.Sprintf("value: AsTime on %s", v.Kind))
	}
	return v.T
}

// IsNumeric reports whether v is an int or a float.
func (v Value) IsNumeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "null"
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		// Decimal, never scientific (%g emits 1e+06): expression
		// renderings must re-lex, and the evlang/mask lexers accept
		// only digits '.' digits. Integral values keep a trailing ".0"
		// so they re-lex as floats; NaN/±Inf (unreachable from parsed
		// literals) pass through untouched.
		s := strconv.FormatFloat(v.F, 'f', -1, 64)
		if !strings.Contains(s, ".") && !strings.ContainsAny(s, "NI") {
			s += ".0"
		}
		return s
	case KindBool:
		return fmt.Sprintf("%t", v.B)
	case KindString:
		return fmt.Sprintf("%q", v.S)
	case KindTime:
		return v.T.Format(time.RFC3339)
	case KindID:
		return fmt.Sprintf("@%d", uint64(v.I))
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
	case KindBool:
		return v.B == w.B
	case KindString:
		return v.S == w.S
	case KindTime:
		return v.T.Equal(w.T)
	case KindID:
		return v.I == w.I
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
		switch {
		case v.S < w.S:
			return -1, nil
		case v.S > w.S:
			return 1, nil
		default:
			return 0, nil
		}
	case v.Kind == KindTime && w.Kind == KindTime:
		switch {
		case v.T.Before(w.T):
			return -1, nil
		case v.T.After(w.T):
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("value: cannot compare %s with %s", v.Kind, w.Kind)
	}
}

// Arith applies a binary arithmetic operator (+, -, *, /, %) with the
// usual numeric promotion; + concatenates strings. Division by an
// integer zero and modulo on non-integers are errors.
func Arith(op byte, v, w Value) (Value, error) {
	if op == '+' && v.Kind == KindString && w.Kind == KindString {
		return Str(v.S + w.S), nil
	}
	if !v.IsNumeric() || !w.IsNumeric() {
		return Null(), fmt.Errorf("value: %c needs numeric operands, got %s and %s", op, v.Kind, w.Kind)
	}
	if v.Kind == KindInt && w.Kind == KindInt {
		a, b := v.I, w.I
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
		return Int(-v.I), nil
	case KindFloat:
		return Float(-v.F), nil
	default:
		return Null(), fmt.Errorf("value: cannot negate %s", v.Kind)
	}
}
