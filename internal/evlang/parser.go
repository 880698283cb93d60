// Package evlang implements the O++ event-specification sub-language
// of the paper (§2–§3): parsing trigger declarations
//
//	T6(): perpetual after withdraw(i, q) && q > 100 ==> log()
//
// and event expressions
//
//	relative(dayBegin, prior(choose 5 (after tcommit), after tcommit)
//	         & !prior(dayBegin, after tcommit))
//
// into surface syntax trees, and resolving them against a class schema
// into algebra expressions over a per-class alphabet of disjoint
// logical events (the §5 mask-disjointness rewrite).
//
// The front end is package mask's: the source is tokenized by mask.Lex,
// the event grammar below runs on a mask.Cursor, and every mask inside
// an event is parsed by mask.Cursor.ParseMask, the one mask grammar.
package evlang

import (
	"fmt"
	"strconv"

	"ode/internal/clock"
	"ode/internal/event"
	"ode/internal/mask"
	"ode/internal/schema"
)

// eventKeywords start (or appear inside) event syntax; their presence
// distinguishes an event expression from the bare object-state mask
// shorthand of §3.3 ("balance < 500.00").
var eventKeywords = map[string]bool{
	"before": true, "after": true, "at": true, "every": true,
	"relative": true, "prior": true, "sequence": true,
	"choose": true, "fa": true, "faAbs": true,
}

// basicKeywords are the built-in basic-event names of §3.1.
var basicKeywords = map[string]bool{
	"create": true, "delete": true, "update": true, "read": true,
	"access": true, "tbegin": true, "tcomplete": true, "tcommit": true,
	"tabort": true,
}

// Parser parses event expressions and trigger declarations. Defines
// plays the role of the paper's #define abbreviations: identifiers in
// event position that name a define are replaced by the defined event.
// Methods holds the class's member-function names, needed to read the
// bare shorthand "f ≡ (before f | after f)" (§3.3) — without it a bare
// identifier can only be the start of an object-state mask.
type Parser struct {
	Defines map[string]*Event
	Methods map[string]bool
}

// NewParser returns a parser with no defines and no known methods.
func NewParser() *Parser { return &Parser{Defines: map[string]*Event{}} }

// Clone returns a parser sharing no mutable state with ps: the define
// and method maps are copied (the *Event values are immutable once
// parsed, so they are shared). Use it when one define-set parser seeds
// several classes — registering a class must not mutate the shared
// parser's method set out from under a concurrent registration.
func (ps *Parser) Clone() *Parser {
	c := &Parser{Defines: make(map[string]*Event, len(ps.Defines))}
	for k, v := range ps.Defines {
		c.Defines[k] = v
	}
	if ps.Methods != nil {
		c.Methods = make(map[string]bool, len(ps.Methods))
		for k, v := range ps.Methods {
			c.Methods[k] = v
		}
	}
	return c
}

// ForClass returns a parser that knows cls's method names.
func ForClass(cls *schema.Class) *Parser {
	ps := NewParser()
	ps.Methods = map[string]bool{}
	for _, m := range cls.Methods {
		ps.Methods[m.Name] = true
	}
	return ps
}

// Define registers a named event abbreviation, parsing its body.
func (ps *Parser) Define(name, src string) error {
	e, err := ps.ParseEvent(src)
	if err != nil {
		return fmt.Errorf("evlang: define %s: %w", name, err)
	}
	ps.Defines[name] = e
	return nil
}

// ParseEvent parses an event expression. A source with no event
// keywords, defines, or sequencing punctuation is the object-state
// shorthand and parses as
//
//	(after update | after create) && mask
func (ps *Parser) ParseEvent(src string) (_ *Event, err error) {
	defer prefix(&err)
	p, err := ps.start(src)
	if err != nil {
		return nil, err
	}
	end := len(p.Toks) - 1
	if !p.regionIsEvent(0, end) {
		return p.parseStateShorthand(end)
	}
	e, err := p.parseEvent()
	if err != nil {
		return nil, err
	}
	if p.Peek().Kind != mask.TokEOF {
		return nil, p.Errorf("trailing input %q", p.Peek().Text)
	}
	return e, nil
}

// start lexes src and returns a parser at its first token.
func (ps *Parser) start(src string) (*parser, error) {
	toks, err := mask.Lex(src)
	if err != nil {
		return nil, err
	}
	return &parser{Cursor: mask.Cursor{Src: src, Toks: toks}, defines: ps.Defines, methods: ps.Methods}, nil
}

// prefix names this package in an error from ParseEvent or ParseTrigger.
func prefix(err *error) {
	if *err != nil {
		*err = fmt.Errorf("evlang: %w", *err)
	}
}

// ParseTrigger parses a full trigger declaration:
//
//	name(params): [perpetual] event ==> action
func (ps *Parser) ParseTrigger(src string) (_ *TriggerDecl, err error) {
	defer prefix(&err)
	p, err := ps.start(src)
	if err != nil {
		return nil, err
	}
	d := &TriggerDecl{}
	name := p.Next()
	if name.Kind != mask.TokIdent {
		return nil, p.Errorf("expected trigger name, found %q", name.Text)
	}
	d.Name = name.Text
	if err := p.Expect("("); err != nil {
		return nil, err
	}
	if !p.Accept(")") {
		for {
			names, err := p.parseFormal()
			if err != nil {
				return nil, err
			}
			d.Params = append(d.Params, names)
			if p.Accept(")") {
				break
			}
			if err := p.Expect(","); err != nil {
				return nil, err
			}
		}
	}
	if err := p.Expect(":"); err != nil {
		return nil, err
	}
	if t := p.Peek(); t.Kind == mask.TokIdent && t.Text == "perpetual" {
		p.Next()
		d.Perpetual = true
	}
	// The event runs until the ==> marker; find it to classify the
	// event region for the state shorthand.
	arrow := -1
	for i := p.Pos; i < len(p.Toks); i++ {
		if p.Toks[i].Kind == mask.TokOp && p.Toks[i].Text == "==>" {
			arrow = i
			break
		}
	}
	if arrow < 0 {
		return nil, p.Errorf("missing ==> in trigger declaration")
	}
	if p.regionIsEvent(p.Pos, arrow) {
		d.Event, err = p.parseEvent()
	} else {
		d.Event, err = p.parseStateShorthand(arrow)
	}
	if err != nil {
		return nil, err
	}
	if err := p.Expect("==>"); err != nil {
		return nil, err
	}
	// The action is the raw remainder of the source text.
	at := p.Peek().Pos
	if p.Peek().Kind == mask.TokEOF {
		return nil, p.Errorf("missing action after ==>")
	}
	d.Action = trimSpace(src[at:])
	return d, nil
}

func trimSpace(s string) string {
	i, j := 0, len(s)
	for i < j && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n') {
		i++
	}
	for j > i && (s[j-1] == ' ' || s[j-1] == '\t' || s[j-1] == '\n') {
		j--
	}
	return s[i:j]
}

// parser is the event grammar on package mask's token cursor.
type parser struct {
	mask.Cursor
	defines map[string]*Event
	methods map[string]bool
}

func (p *parser) peek2() mask.Token {
	if p.Pos+1 < len(p.Toks) {
		return p.Toks[p.Pos+1]
	}
	return mask.Token{Kind: mask.TokEOF}
}

// regionIsEvent reports whether toks[from:to] contains event syntax:
// an event keyword, a define name, or the ';' sequencing punctuation.
func (p *parser) regionIsEvent(from, to int) bool {
	for i := from; i < to && i < len(p.Toks); i++ {
		t := p.Toks[i]
		if t.Kind == mask.TokIdent && (eventKeywords[t.Text] || p.defines[t.Text] != nil || p.methods[t.Text]) {
			return true
		}
		if t.Kind == mask.TokOp && t.Text == ";" {
			return true
		}
	}
	return false
}

// matchParen returns the index of the ')' matching the '(' at open.
func (p *parser) matchParen(open int) int {
	depth := 0
	for i := open; i < len(p.Toks); i++ {
		if p.Toks[i].Kind != mask.TokOp {
			continue
		}
		switch p.Toks[i].Text {
		case "(":
			depth++
		case ")":
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// parseStateShorthand parses the tokens up to index end as one mask
// and wraps it as the paper's object-state event shorthand.
func (p *parser) parseStateShorthand(end int) (*Event, error) {
	m, err := p.ParseMask()
	if err != nil {
		return nil, err
	}
	if p.Pos != end {
		return nil, p.Errorf("trailing input %q", p.Peek().Text)
	}
	return stateEvent(m), nil
}

// stateEvent builds (after update | after create) && m.
func stateEvent(m *mask.Expr) *Event {
	union := &Event{Op: EvOr, Args: []*Event{
		{Op: EvBasic, Basic: &Basic{Phase: event.After, Keyword: "update"}},
		{Op: EvBasic, Basic: &Basic{Phase: event.After, Keyword: "create"}},
	}}
	return &Event{Op: EvMask, Mask: m, Args: []*Event{union}}
}

// Event grammar:
//
//	event   = and { "|" and }
//	and     = seq { "&" seq }
//	seq     = unary { ";" unary }
//	unary   = "!" unary | postfix
//	postfix = primary [ "&&" mask ]
//
// where mask is the grammar of mask.Cursor.ParseMask, run at this
// parser's cursor; it stops before "&", "|", ";", "==>" and an unmatched
// ")" or ",", so the event grammar resumes there.
func (p *parser) parseEvent() (*Event, error) {
	e, err := p.parseAndEvent()
	if err != nil {
		return nil, err
	}
	for p.Accept("|") {
		r, err := p.parseAndEvent()
		if err != nil {
			return nil, err
		}
		if e.Op == EvOr {
			e.Args = append(e.Args, r)
		} else {
			e = &Event{Op: EvOr, Args: []*Event{e, r}}
		}
	}
	return e, nil
}

func (p *parser) parseAndEvent() (*Event, error) {
	e, err := p.parseSeqEvent()
	if err != nil {
		return nil, err
	}
	for p.Accept("&") {
		r, err := p.parseSeqEvent()
		if err != nil {
			return nil, err
		}
		if e.Op == EvAnd {
			e.Args = append(e.Args, r)
		} else {
			e = &Event{Op: EvAnd, Args: []*Event{e, r}}
		}
	}
	return e, nil
}

func (p *parser) parseSeqEvent() (*Event, error) {
	e, err := p.parseUnaryEvent()
	if err != nil {
		return nil, err
	}
	for p.Accept(";") {
		r, err := p.parseUnaryEvent()
		if err != nil {
			return nil, err
		}
		if e.Op == EvSequence && e.N == 0 {
			e.Args = append(e.Args, r)
		} else {
			e = &Event{Op: EvSequence, Args: []*Event{e, r}}
		}
	}
	return e, nil
}

func (p *parser) parseUnaryEvent() (*Event, error) {
	if p.Accept("!") {
		e, err := p.parseUnaryEvent()
		if err != nil {
			return nil, err
		}
		return &Event{Op: EvNot, Args: []*Event{e}}, nil
	}
	return p.parsePostfixEvent()
}

func (p *parser) parsePostfixEvent() (*Event, error) {
	e, err := p.parsePrimaryEvent()
	if err != nil {
		return nil, err
	}
	if p.Accept("&&") {
		m, err := p.ParseMask()
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case EvBasic, EvTime:
			if e.Mask != nil {
				e.Mask = mask.Binary("&&", e.Mask, m)
			} else {
				e.Mask = m
			}
		default:
			// Composite mask: evaluated against database state at the
			// detection point (§3.3).
			e = &Event{Op: EvMask, Mask: m, Args: []*Event{e}}
		}
	}
	return e, nil
}

func (p *parser) parsePrimaryEvent() (*Event, error) {
	t := p.Peek()
	if t.Kind == mask.TokOp && t.Text == "(" {
		// Parenthesized event or parenthesized bare mask: classify the
		// group's contents.
		close := p.matchParen(p.Pos)
		if close < 0 {
			return nil, p.Errorf("unbalanced parenthesis")
		}
		if !p.regionIsEvent(p.Pos+1, close) {
			m, err := p.ParseMask() // consumes the whole group
			if err != nil {
				return nil, err
			}
			return stateEvent(m), nil
		}
		p.Next()
		e, err := p.parseEvent()
		if err != nil {
			return nil, err
		}
		if err := p.Expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	if t.Kind != mask.TokIdent {
		return nil, p.Errorf("expected event, found %q", t.Text)
	}

	switch t.Text {
	case "before", "after":
		return p.parseQualifiedBasic()
	case "at":
		p.Next()
		spec, err := p.parseTimeSpec()
		if err != nil {
			return nil, err
		}
		return &Event{Op: EvTime, Time: &TimeEvent{Mode: TimeAt, Spec: spec}}, nil
	case "every":
		// every N (E) vs every time(...).
		if p.peek2().Kind == mask.TokInt {
			p.Next()
			n, err := p.parseCount()
			if err != nil {
				return nil, err
			}
			args, err := p.parseEventArgs(1, 1)
			if err != nil {
				return nil, err
			}
			return &Event{Op: EvEvery, N: n, Args: args}, nil
		}
		p.Next()
		spec, err := p.parseTimeSpec()
		if err != nil {
			return nil, err
		}
		return &Event{Op: EvTime, Time: &TimeEvent{Mode: TimeEvery, Spec: spec}}, nil
	case "choose":
		p.Next()
		n, err := p.parseCount()
		if err != nil {
			return nil, err
		}
		args, err := p.parseEventArgs(1, 1)
		if err != nil {
			return nil, err
		}
		return &Event{Op: EvChoose, N: n, Args: args}, nil
	case "relative", "prior", "sequence":
		p.Next()
		// relative+ is "relative" written directly against "+".
		if plus := p.Peek(); t.Text == "relative" && plus.Text == "+" && plus.Pos == t.Pos+len(t.Text) {
			p.Next()
			args, err := p.parseEventArgs(1, 1)
			if err != nil {
				return nil, err
			}
			return &Event{Op: EvRelPlus, Args: args}, nil
		}
		op := map[string]EvOp{"relative": EvRelative, "prior": EvPrior, "sequence": EvSequence}[t.Text]
		n := 0
		if p.Peek().Kind == mask.TokInt {
			var err error
			n, err = p.parseCount()
			if err != nil {
				return nil, err
			}
		}
		min, max := 1, -1
		if n > 0 {
			max = 1 // counted form takes exactly one operand
		}
		args, err := p.parseEventArgs(min, max)
		if err != nil {
			return nil, err
		}
		return &Event{Op: op, N: n, Args: args}, nil
	case "fa", "faAbs":
		p.Next()
		op := EvFa
		if t.Text == "faAbs" {
			op = EvFaAbs
		}
		args, err := p.parseEventArgs(3, 3)
		if err != nil {
			return nil, err
		}
		return &Event{Op: op, Args: args}, nil
	}

	if def, ok := p.defines[t.Text]; ok {
		p.Next()
		return def, nil
	}

	// Bare identifier: either the method shorthand f ≡ (before f |
	// after f) — recognizable only when the parser knows the class's
	// methods — or the start of a bare mask (object-state shorthand).
	if p.methods[t.Text] && p.bareIdentIsMethodShorthand() {
		p.Next()
		return &Event{Op: EvOr, Args: []*Event{
			{Op: EvBasic, Basic: &Basic{Phase: event.Before, Method: t.Text}},
			{Op: EvBasic, Basic: &Basic{Phase: event.After, Method: t.Text}},
		}}, nil
	}
	m, err := p.ParseMask()
	if err != nil {
		return nil, err
	}
	return stateEvent(m), nil
}

// bareIdentIsMethodShorthand looks one token past the identifier: an
// event delimiter means the identifier stands alone as a method-name
// event; anything else starts a mask expression.
func (p *parser) bareIdentIsMethodShorthand() bool {
	nxt := p.peek2()
	if nxt.Kind == mask.TokEOF {
		return true
	}
	if nxt.Kind == mask.TokOp {
		switch nxt.Text {
		case ")", ",", ";", "|", "&", "&&":
			return true
		}
	}
	return false
}

func (p *parser) parseQualifiedBasic() (*Event, error) {
	phase := event.Before
	if p.Next().Text == "after" {
		phase = event.After
	}
	t := p.Next()
	if t.Kind != mask.TokIdent {
		return nil, p.Errorf("expected event name after qualifier, found %q", t.Text)
	}
	if t.Text == "time" {
		// after time(...) — the delayed one-shot time event. Rewind so
		// parseTimeSpec sees the 'time' keyword.
		if phase == event.Before {
			return nil, p.Errorf("before time(...) is not a valid event")
		}
		p.Pos--
		spec, err := p.parseTimeSpec()
		if err != nil {
			return nil, err
		}
		return &Event{Op: EvTime, Time: &TimeEvent{Mode: TimeAfter, Spec: spec}}, nil
	}
	b := &Basic{Phase: phase}
	if basicKeywords[t.Text] {
		b.Keyword = t.Text
	} else {
		b.Method = t.Text
		if p.Accept("(") {
			if !p.Accept(")") {
				for {
					name, err := p.parseFormal()
					if err != nil {
						return nil, err
					}
					b.Formals = append(b.Formals, name)
					if p.Accept(")") {
						break
					}
					if err := p.Expect(","); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return &Event{Op: EvBasic, Basic: b}, nil
}

// parseFormal parses a formal parameter: NAME or TYPE NAME (the
// paper writes both "withdraw(i, q)" and "withdraw(Item i, int q)").
// The type, when present, is recorded nowhere — the schema is
// authoritative for kinds.
func (p *parser) parseFormal() (string, error) {
	first := p.Next()
	if first.Kind != mask.TokIdent {
		return "", p.Errorf("expected parameter name, found %q", first.Text)
	}
	if t := p.Peek(); t.Kind == mask.TokIdent {
		p.Next()
		return t.Text, nil
	}
	return first.Text, nil
}

func (p *parser) parseCount() (int, error) {
	t := p.Next()
	if t.Kind != mask.TokInt {
		return 0, p.Errorf("expected integer count, found %q", t.Text)
	}
	n, err := strconv.Atoi(t.Text)
	if err != nil || n < 1 {
		return 0, p.Errorf("count must be a positive integer, got %q", t.Text)
	}
	return n, nil
}

func (p *parser) parseEventArgs(min, max int) ([]*Event, error) {
	if err := p.Expect("("); err != nil {
		return nil, err
	}
	var args []*Event
	for {
		e, err := p.parseEvent()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if p.Accept(")") {
			break
		}
		if err := p.Expect(","); err != nil {
			return nil, err
		}
	}
	if len(args) < min {
		return nil, p.Errorf("operator needs at least %d operand(s), got %d", min, len(args))
	}
	if max >= 0 && len(args) > max {
		return nil, p.Errorf("operator takes at most %d operand(s), got %d", max, len(args))
	}
	return args, nil
}

// parseTimeSpec parses time(FIELD=INT, ...) with fields YR MO DAY HR M
// SEC MS (paper §3.1).
func (p *parser) parseTimeSpec() (clock.TimeSpec, error) {
	spec := clock.EmptyTimeSpec()
	t := p.Next()
	if t.Kind != mask.TokIdent || t.Text != "time" {
		return spec, p.Errorf("expected time(...), found %q", t.Text)
	}
	if err := p.Expect("("); err != nil {
		return spec, err
	}
	if p.Accept(")") {
		return spec, nil
	}
	for {
		name := p.Next()
		if name.Kind != mask.TokIdent {
			return spec, p.Errorf("expected time field, found %q", name.Text)
		}
		if err := p.Expect("="); err != nil {
			return spec, err
		}
		vt := p.Next()
		if vt.Kind != mask.TokInt {
			return spec, p.Errorf("expected integer for %s, found %q", name.Text, vt.Text)
		}
		v, _ := strconv.Atoi(vt.Text)
		switch name.Text {
		case "YR":
			spec.Year = v
		case "MO":
			spec.Month = v
		case "DAY":
			spec.Day = v
		case "HR":
			spec.Hour = v
		case "M":
			spec.Min = v
		case "SEC":
			spec.Sec = v
		case "MS":
			spec.Ms = v
		default:
			return spec, p.Errorf("unknown time field %q", name.Text)
		}
		if p.Accept(")") {
			return spec, nil
		}
		if err := p.Expect(","); err != nil {
			return spec, err
		}
	}
}
