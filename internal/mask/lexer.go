// Package mask implements the predicate language used to mask basic
// events (paper §3.2) and composite events (§3.3): boolean expressions
// over event parameters, object state, trigger-activation parameters
// and registered member functions, e.g.
//
//	q > 1000
//	i.balance < reorder(i)
//	!authorized(user())
//
// A mask attached to a logical event is evaluated at the instant its
// basic event is posted; a mask attached to a whole composite event is
// evaluated at detection time against the then-current state.
//
// The package is also the front end of the event language: its lexer
// tokenizes whole trigger declarations, and package evlang parses event
// syntax over the same tokens with the same Cursor, calling
// Cursor.ParseMask wherever a mask begins. There is one tokenizer and
// one mask grammar.
package mask

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// TokenKind classifies a Token.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokInt
	TokFloat
	TokString
	TokOp // one of the operator strings below
)

// Token is one lexeme: its kind, its text (a string literal's decoded
// value) and its byte offset in the source.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

// operators, longest first so the lexer is greedy: "==>" precedes "=="
// and "=". "==>", ";", ":", "=", "|" and "&" are event and trigger
// syntax; the mask grammar uses the rest.
var operators = []string{
	"==>", "&&", "||", "==", "!=", "<=", ">=",
	"(", ")", ",", ".", "!", "<", ">", "+", "-", "*", "/", "%",
	";", ":", "=", "|", "&",
}

// escapes are the single-letter string escapes. With \x, \u and \U the
// set mirrors what Go's %q renderer emits, so any accepted literal's
// rendering re-parses (parse ∘ render is the identity; FuzzParseMask
// and FuzzParseEvent pin this).
var escapes = map[byte]byte{
	'n': '\n', 't': '\t', 'r': '\r', 'a': '\a', 'b': '\b', 'f': '\f', 'v': '\v',
	'\\': '\\', '"': '"', '\'': '\'',
}

// hexWidths are the digit counts of the \x, \u and \U escapes.
var hexWidths = map[byte]int{'x': 2, 'u': 4, 'U': 8}

// Lex tokenizes src. The slice ends with one TokEOF token.
func Lex(src string) ([]Token, error) { return LexUntil(src, "") }

// LexUntil is Lex that stops after the first operator token stop: the
// text after it is left unlexed, and the TokEOF sits where it begins.
func LexUntil(src, stop string) ([]Token, error) {
	var out []Token
	pos, done := 0, false
	for {
		for pos < len(src) && unicode.IsSpace(rune(src[pos])) {
			pos++
		}
		if pos >= len(src) || done {
			return append(out, Token{Kind: TokEOF, Pos: pos}), nil
		}
		start, c := pos, src[pos]
		switch {
		case isIdentStart(rune(c)):
			for pos < len(src) && isIdentPart(rune(src[pos])) {
				pos++
			}
			out = append(out, Token{Kind: TokIdent, Text: src[start:pos], Pos: start})
		case isDigit(c):
			kind := TokInt
			pos = skipDigits(src, pos)
			// A dot not followed by a digit is not part of the number.
			if pos+1 < len(src) && src[pos] == '.' && isDigit(src[pos+1]) {
				kind = TokFloat
				pos = skipDigits(src, pos+1)
			}
			out = append(out, Token{Kind: kind, Text: src[start:pos], Pos: start})
		case c == '"' || c == '\'':
			s, end, err := lexString(src, pos)
			if err != nil {
				return nil, err
			}
			out = append(out, Token{Kind: TokString, Text: s, Pos: start})
			pos = end
		default:
			op := ""
			for _, o := range operators {
				if strings.HasPrefix(src[pos:], o) {
					op = o
					break
				}
			}
			if op == "" {
				return nil, errorAt(src, pos, "unexpected character %q", c)
			}
			out = append(out, Token{Kind: TokOp, Text: op, Pos: pos})
			pos += len(op)
			done = op == stop
		}
	}
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }
func isDigit(c byte) bool      { return c >= '0' && c <= '9' }

func skipDigits(src string, pos int) int {
	for pos < len(src) && isDigit(src[pos]) {
		pos++
	}
	return pos
}

// lexString decodes the quoted literal starting at src[start] and
// returns its value and the offset just past the closing quote.
func lexString(src string, start int) (string, int, error) {
	quote := src[start]
	var b strings.Builder
	for pos := start + 1; pos < len(src); pos++ {
		c := src[pos]
		if c == quote {
			return b.String(), pos + 1, nil
		}
		if c != '\\' || pos+1 >= len(src) {
			b.WriteByte(c)
			continue
		}
		pos++
		if e, ok := escapes[src[pos]]; ok {
			b.WriteByte(e)
			continue
		}
		width := hexWidths[src[pos]]
		if width == 0 {
			return "", 0, errorAt(src, pos, "unknown escape \\%c", src[pos])
		}
		n, err := hexEscape(src, pos, width)
		if err != nil {
			return "", 0, err
		}
		switch {
		case width == 2:
			b.WriteByte(byte(n))
		case n > 0x10FFFF:
			return "", 0, errorAt(src, pos, "rune escape out of range")
		default:
			b.WriteRune(rune(n))
		}
		pos += width
	}
	return "", 0, errorAt(src, start, "unterminated string")
}

// hexEscape decodes exactly width hex digits following the escape
// letter at src[pos].
func hexEscape(src string, pos, width int) (uint32, error) {
	if pos+width >= len(src) {
		return 0, errorAt(src, pos, "truncated hex escape")
	}
	digits := src[pos+1 : pos+1+width]
	n, err := strconv.ParseUint(digits, 16, 32)
	if err != nil {
		return 0, errorAt(src, pos, "bad hex escape %q", digits)
	}
	return uint32(n), nil
}

// errorAt formats a front-end error at byte offset pos of src. The
// entry points (Parse here, ParseEvent and ParseTrigger in evlang) add
// their package's prefix.
func errorAt(src string, pos int, format string, args ...any) error {
	return fmt.Errorf("%s (at offset %d in %q)", fmt.Sprintf(format, args...), pos, src)
}
