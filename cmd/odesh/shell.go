package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"ode"
)

// pendingClass is a class under construction (before register).
type pendingClass struct {
	builder  *ode.ClassBuilder
	fields   []string
	kinds    map[string]ode.Kind // by field name
	methods  []string
	triggers []string
}

type shell struct {
	db      *ode.Database
	out     io.Writer
	pending map[string]*pendingClass
	defines *ode.Defines
	tx      *ode.Tx // explicit transaction, if open
}

func newShell(out io.Writer, dir string) (*shell, error) {
	db, err := ode.Open(ode.Options{Dir: dir, Start: time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)})
	if err != nil {
		return nil, err
	}
	db.EnableTracing(0) // history reads the trace
	return &shell{
		db:      db,
		out:     out,
		pending: map[string]*pendingClass{},
		defines: ode.NewDefines(),
	}, nil
}

func (sh *shell) close() { sh.db.Close() }

func (sh *shell) run(sc *bufio.Scanner, interactive bool) {
	for {
		if interactive {
			fmt.Fprint(sh.out, "ode> ")
		}
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := sh.exec(line); err != nil {
			fmt.Fprintln(sh.out, "error:", err)
		}
	}
}

func (sh *shell) exec(line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "help":
		sh.help()
		return nil
	case "defclass":
		return sh.defclass(rest)
	case "defmethod":
		return sh.defmethod(rest)
	case "deftrigger":
		return sh.deftrigger(rest)
	case "wholeview":
		class, trigger, _ := strings.Cut(rest, " ")
		pc, found := sh.pending[class]
		if !found || trigger == "" {
			return fmt.Errorf("usage: wholeview CLASS TRIGGER (of a pending class)")
		}
		pc.builder.View(strings.TrimSpace(trigger), ode.WholeView)
		return nil
	case "define":
		name, src, ok := strings.Cut(rest, "=")
		if !ok {
			return fmt.Errorf("usage: define NAME=EVENT")
		}
		return sh.safeDefine(strings.TrimSpace(name), strings.TrimSpace(src))
	case "register":
		return sh.register(rest)
	case "new":
		return sh.newObject(rest)
	case "call":
		return sh.call(rest)
	case "get":
		return sh.get(rest)
	case "set":
		return sh.set(rest)
	case "activate", "deactivate":
		return sh.arm(cmd, rest)
	case "begin":
		if sh.tx != nil {
			return fmt.Errorf("a transaction is already open")
		}
		sh.tx = sh.db.Begin()
		fmt.Fprintln(sh.out, "transaction open")
		return nil
	case "commit":
		if sh.tx == nil {
			return fmt.Errorf("no open transaction")
		}
		err := sh.tx.Commit()
		sh.tx = nil
		if err == nil {
			fmt.Fprintln(sh.out, "committed")
		}
		return err
	case "abort":
		if sh.tx == nil {
			return fmt.Errorf("no open transaction")
		}
		err := sh.tx.Abort()
		sh.tx = nil
		if err == nil {
			fmt.Fprintln(sh.out, "aborted")
		}
		return err
	case "advance":
		d, err := time.ParseDuration(rest)
		if err != nil {
			return err
		}
		if sh.tx != nil {
			return fmt.Errorf("close the transaction before advancing the clock")
		}
		sh.db.Clock().Advance(d)
		fmt.Fprintln(sh.out, "clock:", sh.db.Clock().Now().Format(time.RFC3339))
		return nil
	case "now":
		fmt.Fprintln(sh.out, sh.db.Clock().Now().Format(time.RFC3339))
		return nil
	case "state":
		return sh.state(rest)
	case "history":
		return sh.historyCmd(rest)
	case "automata":
		return sh.automata(rest)
	case ".trace":
		return sh.trace(rest)
	case ".stats":
		return sh.stats()
	case ".why":
		return sh.why(rest)
	case ".feed":
		return sh.feed(rest)
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

func (sh *shell) safeDefine(name, src string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	sh.defines.Add(name, src)
	return nil
}

func (sh *shell) help() {
	fmt.Fprint(sh.out, `commands:
  defclass NAME field:kind[=default] ...   declare a class (kinds: int float bool string id)
      every field gets auto methods set_<field>(v) [update] and get_<field>() [read]
  defmethod NAME method read|update [p:kind ...] [field=value]
      declare an extra method: a no-op, or one that sets field to value
  deftrigger NAME DECL       declare a trigger, e.g.
      deftrigger account Low(): perpetual balance < 100 ==> print
      actions: print | tabort | someMethod()
  wholeview NAME TRIGGER     the trigger sees aborted transactions' events too (§6)
  define NAME=EVENT          #define-style event abbreviation
  register NAME              compile the class (triggers become automata)
  new NAME [field=value ...] create an object            → @oid
  call @oid METHOD [args]    invoke a member function (posts events)
  get/set @oid FIELD [value] raw field access (no events)
  activate/deactivate @oid TRIGGER [args]
  begin | commit | abort     explicit transaction (otherwise one per command)
  advance DUR | now          virtual clock (e.g. advance 2h30m)
  state @oid TRIGGER         automaton state (one integer, paper §5)
  history @oid               the last 20 happenings (point, then trace record;
                             needs tracing on since before the object's creation)
  automata NAME              trigger automaton sizes for a class
  .trace on|off|show [N]     pipeline tracing (show prints the last N events, default 20)
  .stats                     engine counters and per-trigger metrics
  .why @oid TRIGGER          firing provenance: the happening chain behind the
                             trigger's current state / most recent firing
  .feed [after [max]]        durable firing-egress feed (records after the
                             given position; max defaults to 20)
  quit
`)
}

func parseKind(s string) (ode.Kind, error) {
	switch s {
	case "int":
		return ode.KindInt, nil
	case "float":
		return ode.KindFloat, nil
	case "bool":
		return ode.KindBool, nil
	case "string":
		return ode.KindString, nil
	case "id":
		return ode.KindID, nil
	}
	return ode.KindNull, fmt.Errorf("unknown kind %q", s)
}

func parseValue(kind ode.Kind, s string) (ode.Value, error) {
	switch kind {
	case ode.KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		return ode.Int(i), err
	case ode.KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		return ode.Float(f), err
	case ode.KindBool:
		b, err := strconv.ParseBool(s)
		return ode.Bool(b), err
	case ode.KindString:
		return ode.Str(s), nil
	case ode.KindID:
		oid, err := parseOID(s)
		return ode.Ref(oid), err
	}
	return ode.Null(), fmt.Errorf("cannot parse %q", s)
}

// guessValue infers a literal's kind.
func guessValue(s string) ode.Value {
	if oid, err := parseOID(s); err == nil {
		return ode.Ref(oid)
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return ode.Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return ode.Float(f)
	}
	if b, err := strconv.ParseBool(s); err == nil {
		return ode.Bool(b)
	}
	return ode.Str(s)
}

func parseOID(s string) (ode.OID, error) {
	if !strings.HasPrefix(s, "@") {
		return 0, fmt.Errorf("object ids look like @1")
	}
	n, err := strconv.ParseUint(s[1:], 10, 64)
	return ode.OID(n), err
}

func (sh *shell) defclass(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return fmt.Errorf("usage: defclass NAME field:kind[=default] ...")
	}
	name := fields[0]
	if _, dup := sh.pending[name]; dup {
		return fmt.Errorf("class %s already being defined", name)
	}
	b := sh.db.NewClass(name).Defines(sh.defines)
	pc := &pendingClass{builder: b, kinds: map[string]ode.Kind{}}
	for _, f := range fields[1:] {
		spec, deflt, hasDefault := strings.Cut(f, "=")
		fname, kindName, ok := strings.Cut(spec, ":")
		if !ok {
			return fmt.Errorf("field %q: want name:kind[=default]", f)
		}
		kind, err := parseKind(kindName)
		if err != nil {
			return err
		}
		dv := ode.Null()
		if hasDefault {
			if dv, err = parseValue(kind, deflt); err != nil {
				return err
			}
		}
		b.Field(fname, kind, dv)
		pc.kinds[fname] = kind
		// Auto accessor methods make every field observable as events.
		field := fname
		b.Update("set_"+field, func(ctx *ode.MethodCtx) (ode.Value, error) {
			return ode.Null(), ctx.Set(field, ctx.Arg("v"))
		}, ode.P("v", kind))
		b.Read("get_"+field, func(ctx *ode.MethodCtx) (ode.Value, error) {
			return ctx.Get(field)
		})
		pc.fields = append(pc.fields, fname)
	}
	sh.pending[name] = pc
	fmt.Fprintf(sh.out, "class %s: %d field(s); register when done\n", name, len(pc.fields))
	return nil
}

func (sh *shell) defmethod(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 3 {
		return fmt.Errorf("usage: defmethod CLASS METHOD read|update [p:kind ...] [field=value]")
	}
	pc, ok := sh.pending[fields[0]]
	if !ok {
		return fmt.Errorf("no pending class %q", fields[0])
	}
	method := fields[1]
	var params []ode.Param
	impl := func(ctx *ode.MethodCtx) (ode.Value, error) { return ode.Null(), nil }
	for _, p := range fields[3:] {
		if field, lit, set := strings.Cut(p, "="); set { // the body: set field to lit
			kind, ok := pc.kinds[field]
			if !ok {
				return fmt.Errorf("no field %q", field)
			}
			v, err := parseValue(kind, lit)
			if err != nil {
				return err
			}
			impl = func(ctx *ode.MethodCtx) (ode.Value, error) { return ode.Null(), ctx.Set(field, v) }
			continue
		}
		pname, kindName, ok := strings.Cut(p, ":")
		if !ok {
			return fmt.Errorf("param %q: want name:kind", p)
		}
		kind, err := parseKind(kindName)
		if err != nil {
			return err
		}
		params = append(params, ode.P(pname, kind))
	}
	switch fields[2] {
	case "read":
		pc.builder.Read(method, impl, params...)
	case "update":
		pc.builder.Update(method, impl, params...)
	default:
		return fmt.Errorf("mode must be read or update")
	}
	pc.methods = append(pc.methods, method)
	return nil
}

func (sh *shell) deftrigger(rest string) error {
	name, decl, ok := strings.Cut(rest, " ")
	if !ok {
		return fmt.Errorf("usage: deftrigger CLASS DECL")
	}
	pc, found := sh.pending[name]
	if !found {
		return fmt.Errorf("no pending class %q", name)
	}
	decl = strings.TrimSpace(decl)
	var action ode.ActionFunc
	if strings.HasSuffix(decl, "==> print") {
		decl = strings.TrimSuffix(decl, "print") + "printAction"
		action = func(ctx *ode.ActionCtx) error {
			fmt.Fprintf(sh.out, "  [%s] fired at @%d\n", ctx.Trigger, ctx.Self)
			return nil
		}
	}
	pc.builder.Trigger(decl, action)
	pc.triggers = append(pc.triggers, decl)
	return nil
}

func (sh *shell) register(rest string) error {
	name := strings.TrimSpace(rest)
	pc, ok := sh.pending[name]
	if !ok {
		return fmt.Errorf("no pending class %q", name)
	}
	if err := pc.builder.Register(); err != nil {
		delete(sh.pending, name)
		return err
	}
	delete(sh.pending, name)
	autos, err := sh.db.Inspect(name)
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "class %s registered; %d trigger automaton(a):\n", name, len(autos))
	for _, a := range autos {
		fmt.Fprintf(sh.out, "  %-12s %3d states × %d symbols\n", a.Trigger, a.States, a.Symbols)
	}
	return nil
}

// withTx runs fn in the open explicit transaction or a one-shot one.
func (sh *shell) withTx(fn func(tx *ode.Tx) error) error {
	if sh.tx != nil {
		return fn(sh.tx)
	}
	return sh.db.Transact(fn)
}

func (sh *shell) newObject(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return fmt.Errorf("usage: new CLASS [field=value ...]")
	}
	init := map[string]ode.Value{}
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("want field=value, got %q", f)
		}
		init[k] = guessValue(v)
	}
	var oid ode.OID
	err := sh.withTx(func(tx *ode.Tx) error {
		var err error
		oid, err = tx.NewObject(fields[0], init)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "@%d\n", oid)
	return nil
}

func (sh *shell) call(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return fmt.Errorf("usage: call @oid METHOD [args]")
	}
	oid, err := parseOID(fields[0])
	if err != nil {
		return err
	}
	args := make([]ode.Value, len(fields)-2)
	for i, a := range fields[2:] {
		args[i] = guessValue(a)
	}
	var out ode.Value
	err = sh.withTx(func(tx *ode.Tx) error {
		var err error
		out, err = tx.Call(oid, fields[1], args...)
		return err
	})
	if err != nil {
		return err
	}
	if !out.IsNull() {
		fmt.Fprintln(sh.out, out)
	}
	return nil
}

func (sh *shell) get(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return fmt.Errorf("usage: get @oid FIELD")
	}
	oid, err := parseOID(fields[0])
	if err != nil {
		return err
	}
	var v ode.Value
	if err := sh.withTx(func(tx *ode.Tx) error {
		var err error
		v, err = tx.Get(oid, fields[1])
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintln(sh.out, v)
	return nil
}

func (sh *shell) set(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) != 3 {
		return fmt.Errorf("usage: set @oid FIELD VALUE")
	}
	oid, err := parseOID(fields[0])
	if err != nil {
		return err
	}
	return sh.withTx(func(tx *ode.Tx) error {
		return tx.Set(oid, fields[1], guessValue(fields[2]))
	})
}

func (sh *shell) arm(cmd, rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return fmt.Errorf("usage: %s @oid TRIGGER [args]", cmd)
	}
	oid, err := parseOID(fields[0])
	if err != nil {
		return err
	}
	return sh.withTx(func(tx *ode.Tx) error {
		if cmd == "deactivate" {
			return tx.Deactivate(oid, fields[1])
		}
		args := make([]ode.Value, len(fields)-2)
		for i, a := range fields[2:] {
			args[i] = guessValue(a)
		}
		return tx.Activate(oid, fields[1], args...)
	})
}

func (sh *shell) state(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return fmt.Errorf("usage: state @oid TRIGGER")
	}
	oid, err := parseOID(fields[0])
	if err != nil {
		return err
	}
	state, active, err := sh.db.TriggerState(oid, fields[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "state=%d active=%v\n", state, active)
	return nil
}

func (sh *shell) historyCmd(rest string) error {
	oid, err := parseOID(strings.TrimSpace(rest))
	if err != nil {
		return err
	}
	hist, err := sh.db.History(oid)
	if err != nil {
		return err
	}
	for i := max(0, len(hist)-20); i < len(hist); i++ {
		fmt.Fprintf(sh.out, "  %4d %s\n", i+1, hist[i])
	}
	return nil
}

func (sh *shell) trace(rest string) error {
	mode, arg, _ := strings.Cut(strings.TrimSpace(rest), " ")
	switch mode {
	case "on":
		sh.db.EnableTracing(0)
		fmt.Fprintln(sh.out, "tracing on")
		return nil
	case "off":
		sh.db.DisableTracing()
		fmt.Fprintln(sh.out, "tracing off")
		return nil
	case "show":
		if !sh.db.TracingEnabled() {
			return fmt.Errorf("tracing is off (.trace on)")
		}
		last := 20
		if arg = strings.TrimSpace(arg); arg != "" {
			n, err := strconv.Atoi(arg)
			if err != nil {
				return fmt.Errorf("bad count %q", arg)
			}
			last = n
		}
		for _, ev := range sh.db.TraceEvents(last) {
			fmt.Fprintln(sh.out, " ", ev)
		}
		return nil
	}
	return fmt.Errorf("usage: .trace on|off|show [N]")
}

func (sh *shell) stats() error {
	s := sh.db.Stats()
	fmt.Fprintf(sh.out, "tx: %d begun, %d committed, %d aborted (%d system)\n",
		s.TxBegun, s.TxCommitted, s.TxAborted, s.SystemTx)
	fmt.Fprintf(sh.out, "pipeline: %d happenings, %d mask evals, %d steps, %d firings\n",
		s.Happenings, s.MaskEvals, s.Steps, s.Firings)
	fmt.Fprintf(sh.out, "timers: %d posted; tcomplete rounds: %d\n",
		s.TimerPosts, s.TcompleteRounds)
	snap := sh.db.Metrics()
	for _, ts := range snap.Triggers {
		fmt.Fprintf(sh.out, "  %s.%s: %d firings, %d steps, %d/%d masks true",
			ts.Class, ts.Trigger, ts.Firings, ts.Steps, ts.MaskEvals-ts.MaskFalse, ts.MaskEvals)
		if ts.Latency.Count > 0 {
			fmt.Fprintf(sh.out, ", action mean %s max %s",
				time.Duration(ts.Latency.MeanNs), time.Duration(ts.Latency.MaxNs))
		}
		if ts.ActionErrors > 0 {
			fmt.Fprintf(sh.out, ", %d action errors", ts.ActionErrors)
		}
		fmt.Fprintln(sh.out)
	}
	return nil
}

func (sh *shell) why(rest string) error {
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return fmt.Errorf("usage: .why @oid TRIGGER")
	}
	oid, err := parseOID(fields[0])
	if err != nil {
		return err
	}
	ex, err := sh.db.Explain(fields[1], oid)
	if err != nil {
		return err
	}
	status := "has not fired"
	if ex.Fired {
		status = "fired"
	}
	fmt.Fprintf(sh.out, "%s.%s at @%d: %s; state=%d active=%v\n",
		ex.Class, ex.Trigger, ex.OID, status, ex.State, ex.Active)
	switch {
	case len(ex.Steps) == 0 && ex.Truncated:
		fmt.Fprintln(sh.out, "  history cut at the journal's tail: no transition since activation retained")
		return nil
	case len(ex.Steps) == 0:
		fmt.Fprintln(sh.out, "  no transitions recorded since activation")
		return nil
	case ex.Complete:
	case ex.Truncated && ex.Steps[0].Seq == 1:
		fmt.Fprintf(sh.out, "  (history cut at the journal's tail: the chain starts at the oldest of %d retained transitions)\n",
			ex.TotalSteps)
	default:
		fmt.Fprintf(sh.out, "  (chain broken by a rollback before step %d of %d)\n", ex.Steps[0].Seq, ex.TotalSteps)
	}
	for _, s := range ex.Steps {
		fmt.Fprintf(sh.out, "  %4d  %-24s tx=%d %d→%d", s.Seq, s.Kind, s.TxID, s.From, s.To)
		if s.Bits != 0 {
			fmt.Fprintf(sh.out, " bits=%#x", s.Bits)
		}
		if s.Accepted {
			fmt.Fprint(sh.out, "  ** fires")
		}
		fmt.Fprintln(sh.out)
	}
	return nil
}

func (sh *shell) feed(rest string) error {
	fields := strings.Fields(rest)
	var after uint64
	max := 20
	if len(fields) > 2 {
		return fmt.Errorf("usage: .feed [after [max]]")
	}
	if len(fields) >= 1 {
		n, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad after position %q", fields[0])
		}
		after = n
	}
	if len(fields) == 2 {
		n, err := strconv.Atoi(fields[1])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad max %q", fields[1])
		}
		max = n
	}
	recs, head := sh.db.Firings(after, max)
	fmt.Fprintf(sh.out, "feed head: %d\n", head)
	for _, r := range recs {
		fmt.Fprintf(sh.out, "  %6d  %s.%s @%d %-10s tx=%d part=%d at=%s\n",
			r.Seq, r.Class, r.Trigger, r.OID, r.Kind, r.TxID, r.Part,
			time.Unix(0, r.AtNs).UTC().Format(time.RFC3339))
	}
	return nil
}

func (sh *shell) automata(rest string) error {
	autos, err := sh.db.Inspect(strings.TrimSpace(rest))
	if err != nil {
		return err
	}
	for _, a := range autos {
		fmt.Fprintf(sh.out, "  %-12s %3d states × %d symbols, table %d B, %d B/object\n",
			a.Trigger, a.States, a.Symbols, a.TableBytes, a.PerObjectBytes)
	}
	return nil
}
