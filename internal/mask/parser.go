package mask

import (
	"fmt"
	"strconv"
)

// Parse parses a mask expression: the grammar of Cursor.ParseMask over
// the whole of src, which must end where the mask does.
func Parse(src string) (*Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, fmt.Errorf("mask: %w", err)
	}
	c := &Cursor{Src: src, Toks: toks}
	e, err := c.ParseMask()
	if err == nil && c.Peek().Kind != TokEOF {
		err = c.Errorf("trailing input %q", c.Peek().Text)
	}
	if err != nil {
		return nil, fmt.Errorf("mask: %w", err)
	}
	return e, nil
}

// MustParse is Parse for known-good sources; it panics on error.
func MustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Cursor is a position in a token slice from Lex. Parse runs the mask
// grammar with one; evlang runs its event grammar with one and hands it
// to ParseMask wherever a mask begins.
type Cursor struct {
	Src  string  // the source Toks came from, quoted in errors
	Toks []Token // ends with TokEOF
	Pos  int     // index of the next token
}

// Peek returns the next token without consuming it.
func (c *Cursor) Peek() Token { return c.Toks[c.Pos] }

// Next consumes and returns the next token; TokEOF is never consumed.
func (c *Cursor) Next() Token {
	t := c.Toks[c.Pos]
	if t.Kind != TokEOF {
		c.Pos++
	}
	return t
}

// Accept consumes the next token if it is the operator op.
func (c *Cursor) Accept(op string) bool {
	if t := c.Peek(); t.Kind == TokOp && t.Text == op {
		c.Pos++
		return true
	}
	return false
}

// Expect consumes the operator op or fails.
func (c *Cursor) Expect(op string) error {
	if !c.Accept(op) {
		return c.Errorf("expected %q, found %q", op, c.Peek().Text)
	}
	return nil
}

// Errorf reports an error at the next token's offset in Src.
func (c *Cursor) Errorf(format string, args ...any) error {
	return errorAt(c.Src, c.Peek().Pos, format, args...)
}

// ParseMask parses one mask at the cursor and leaves the cursor on the
// first token that cannot continue it. That is how a mask ends inside
// event syntax: the single "&" and "|" (event operators), ";", ":",
// "==>", and an unmatched ")" or "," are never consumed here, while
// "&&" and "||" are mask conjunction and disjunction. The grammar,
// tightest-binding last:
//
//	mask    = and { "||" and }
//	and     = cmp { "&&" cmp }
//	cmp     = add [ ("=="|"!="|"<"|"<="|">"|">=") add ]
//	add     = mul { ("+"|"-") mul }
//	mul     = unary { ("*"|"/"|"%") unary }
//	unary   = "!" unary | "-" unary | postfix
//	postfix = primary { "." ident }
//	primary = int | float | string | "true" | "false" | "null"
//	        | ident "(" [ mask { "," mask } ] ")"
//	        | ident
//	        | "(" mask ")"
func (c *Cursor) ParseMask() (*Expr, error) {
	return c.binaryLeft(c.parseAnd, "||")
}

func (c *Cursor) parseAnd() (*Expr, error) { return c.binaryLeft(c.parseCmp, "&&") }

func (c *Cursor) parseAdd() (*Expr, error) { return c.binaryLeft(c.parseMul, "+", "-") }

func (c *Cursor) parseMul() (*Expr, error) { return c.binaryLeft(c.parseUnary, "*", "/", "%") }

// binaryLeft parses operand { op operand } for the given operators,
// associating to the left.
func (c *Cursor) binaryLeft(operand func() (*Expr, error), ops ...string) (*Expr, error) {
	e, err := operand()
	if err != nil {
		return nil, err
	}
	for {
		op := c.acceptAny(ops)
		if op == "" {
			return e, nil
		}
		r, err := operand()
		if err != nil {
			return nil, err
		}
		e = Binary(op, e, r)
	}
}

// acceptAny consumes the next token if it is one of ops and returns it.
func (c *Cursor) acceptAny(ops []string) string {
	for _, op := range ops {
		if c.Accept(op) {
			return op
		}
	}
	return ""
}

var cmpOps = []string{"==", "!=", "<=", ">=", "<", ">"}

// parseCmp allows at most one comparison: a < b < c does not parse.
func (c *Cursor) parseCmp() (*Expr, error) {
	e, err := c.parseAdd()
	if err != nil {
		return nil, err
	}
	if op := c.acceptAny(cmpOps); op != "" {
		r, err := c.parseAdd()
		if err != nil {
			return nil, err
		}
		return Binary(op, e, r), nil
	}
	return e, nil
}

func (c *Cursor) parseUnary() (*Expr, error) {
	if op := c.acceptAny([]string{"!", "-"}); op != "" {
		e, err := c.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary(op, e), nil
	}
	return c.parsePostfix()
}

func (c *Cursor) parsePostfix() (*Expr, error) {
	e, err := c.parsePrimary()
	if err != nil {
		return nil, err
	}
	for c.Accept(".") {
		t := c.Next()
		if t.Kind != TokIdent {
			return nil, errorAt(c.Src, t.Pos, "expected field name after '.', found %q", t.Text)
		}
		e = Field(e, t.Text)
	}
	return e, nil
}

// parsePrimary reports its errors at the offending token, which it has
// consumed.
func (c *Cursor) parsePrimary() (*Expr, error) {
	t := c.Next()
	switch t.Kind {
	case TokInt:
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errorAt(c.Src, t.Pos, "bad integer %q", t.Text)
		}
		return Lit(intVal(i)), nil
	case TokFloat:
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errorAt(c.Src, t.Pos, "bad float %q", t.Text)
		}
		return Lit(floatVal(f)), nil
	case TokString:
		return Lit(strVal(t.Text)), nil
	case TokIdent:
		switch t.Text {
		case "true", "false":
			return Lit(boolVal(t.Text == "true")), nil
		case "null":
			return Lit(nullVal()), nil
		}
		if !c.Accept("(") {
			return Var(t.Text), nil
		}
		var args []*Expr
		for !c.Accept(")") {
			if len(args) > 0 {
				if err := c.Expect(","); err != nil {
					return nil, err
				}
			}
			a, err := c.ParseMask()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
		}
		return Call(t.Text, args...), nil
	case TokOp:
		if t.Text == "(" {
			e, err := c.ParseMask()
			if err != nil {
				return nil, err
			}
			if err := c.Expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, errorAt(c.Src, t.Pos, "expected mask expression, found %q", t.Text)
}
