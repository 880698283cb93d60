package main

import (
	"bufio"
	"bytes"
	"slices"
	"strings"
	"testing"
)

// runScript executes shell commands and returns the combined output.
func runScript(t *testing.T, lines ...string) string {
	t.Helper()
	var out bytes.Buffer
	sh, err := newShell(&out, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sh.close()
	sh.run(bufio.NewScanner(strings.NewReader(strings.Join(lines, "\n"))), false)
	return out.String()
}

func TestShellEndToEnd(t *testing.T) {
	out := runScript(t,
		"define dayEnd=at time(HR=17)",
		"defclass account balance:int=1000 owner:string",
		"defmethod account audit read",
		"deftrigger account Low(): perpetual balance < 500 ==> print",
		"deftrigger account Close(): perpetual dayEnd ==> print",
		"register account",
		"new account owner=alice",
		"activate @1 Low",
		"activate @1 Close",
		"call @1 set_balance 800",
		"call @1 set_balance 400",
		"state @1 Low",
		"advance 12h",
		"get @1 balance",
		"history @1",
		"automata account",
	)
	for _, want := range []string{
		"class account registered",
		"@1",
		"[Low] fired at @1",
		"[Close] fired at @1",
		"active=true",
		"400",
		"timer at time(HR=17)",
		" happening tx=9 @1 after set_balance", // history @1: a point, then its trace record
		"8 B/object",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "error:") {
		t.Fatalf("script raised errors:\n%s", out)
	}
}

func TestShellExplicitTransaction(t *testing.T) {
	out := runScript(t,
		"defclass acct v:int=0",
		"deftrigger acct Two(): perpetual relative(after set_v, after set_v) ==> print",
		"register acct",
		"new acct",
		"activate @1 Two",
		"begin",
		"call @1 set_v 1",
		"call @1 set_v 2",
		"commit",
		"get @1 v",
	)
	if !strings.Contains(out, "[Two] fired at @1") || !strings.Contains(out, "committed") {
		t.Fatalf("missing firing or commit:\n%s", out)
	}
	// Abort path rolls back.
	out = runScript(t,
		"defclass acct v:int=7",
		"register acct",
		"new acct",
		"begin",
		"call @1 set_v 99",
		"abort",
		"get @1 v",
	)
	if !strings.Contains(out, "aborted") || !strings.Contains(out, "\n7\n") {
		t.Fatalf("abort did not roll back:\n%s", out)
	}
}

func TestShellErrors(t *testing.T) {
	out := runScript(t,
		"bogus command",
		"defclass",                // usage
		"defmethod nosuch m read", // unknown pending class
		"deftrigger nosuch T(): after x ==> print", // unknown pending class
		"register nosuch",
		"new nosuch",
		"call @1 anything",
		"get @99 f",
		"commit",
		"advance notaduration",
		"defclass bad f:wat",
	)
	if n := strings.Count(out, "error:"); n < 10 {
		t.Fatalf("expected ≥10 errors, got %d:\n%s", n, out)
	}
}

func TestShellTabortAction(t *testing.T) {
	out := runScript(t,
		"defclass acct v:int=0",
		"deftrigger acct Guard(): perpetual before set_v && v > 100 ==> tabort",
		"register acct",
		"new acct",
		"activate @1 Guard",
		"call @1 set_v 50",
		"call @1 set_v 500",
		"get @1 v",
	)
	if !strings.Contains(out, "tabort") {
		t.Fatalf("tabort not surfaced:\n%s", out)
	}
	if !strings.Contains(out, "\n50\n") {
		t.Fatalf("rejected write applied:\n%s", out)
	}
}

func TestShellTraceAndStats(t *testing.T) {
	out := runScript(t,
		"defclass acct v:int=0",
		"deftrigger acct Big(): perpetual after set_v(x) && x > 100 ==> print",
		"register acct",
		"new acct",
		"activate @1 Big",
		".trace on",
		"call @1 set_v 500",
		".trace show",
		".stats",
		".trace off",
		".trace show",
	)
	for _, want := range []string{
		"tracing on",
		"happening",       // trace event for the posted method call
		"0→1 accept=true", // the Big automaton accepting
		"fire",            // the firing event
		"pipeline:",       // .stats counters line
		"timers: 0 posted; tcomplete rounds: 3\n", // .stats timers line
		"acct.Big: 1 firings",                     // per-trigger metrics line
		"tracing off",
		"error: tracing is off", // show after off fails
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestShellTraceEgress: the record of a firing reaching the egress feed
// shows the batch's size and sequence numbers, not an object.
func TestShellTraceEgress(t *testing.T) {
	out := runScript(t,
		"defclass acct v:int=0",
		"deftrigger acct Big(): perpetual after set_v(x) && x > 100 ==> print",
		"register acct",
		"new acct",
		"activate @1 Big",
		".trace on",
		"call @1 set_v 500",
		".trace show",
	)
	var egress []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, " egress ") {
			egress = append(egress, line)
		}
	}
	if len(egress) != 1 || !strings.HasSuffix(egress[0], " n=1 seq=1..1") || strings.Contains(egress[0], "@") {
		t.Fatalf("egress lines %q, want one ending n=1 seq=1..1 with no object:\n%s", egress, out)
	}
}

// TestShellTraceBatch: a lifecycle run's batch record shows its count:
// the before tcomplete and after tcommit runs over two objects.
func TestShellTraceBatch(t *testing.T) {
	out := runScript(t,
		"defclass acct v:int=0",
		"register acct",
		"new acct",
		"new acct",
		".trace on",
		"begin",
		"call @1 set_v 1",
		"call @2 set_v 2",
		"commit",
		".trace show",
	)
	var runs []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, " batch ") {
			_, run, _ := strings.Cut(line, " tx=")
			_, run, _ = strings.Cut(run, " ") // past the transaction id
			runs = append(runs, run)
		}
	}
	want := []string{"before tcomplete n=2", "after tcommit n=2"}
	if !slices.Equal(runs, want) {
		t.Fatalf("batch lines %q, want %q:\n%s", runs, want, out)
	}
}

func TestShellTraceUsage(t *testing.T) {
	out := runScript(t, ".trace sideways", ".trace on", ".trace show notanumber")
	if n := strings.Count(out, "error:"); n != 2 {
		t.Fatalf("expected 2 errors, got %d:\n%s", n, out)
	}
}

// TestShellWhy: the .why command renders a fired trigger's provenance
// chain, an unfired one's partial state, and tells a chain broken by a
// rollback from a history cut at the journal's tail.
func TestShellWhy(t *testing.T) {
	out := runScript(t,
		"defclass account balance:int=1000",
		"defmethod account deposit update a:int",
		"defmethod account withdraw update a:int",
		"deftrigger account Audit(): prior(after deposit, after withdraw) ==> print",
		"deftrigger account Fresh(): perpetual after deposit ==> print",
		"register account",
		"new account",
		"activate @1 Audit",
		"activate @1 Fresh",
		"begin",
		"call @1 deposit 50",
		"call @1 withdraw 20",
		"commit",
		".why @1 Audit",
		"deactivate @1 Fresh",
		"activate @1 Fresh",
		".why @1 Fresh",
	)
	for _, want := range []string{
		"[Audit] fired at @1",
		"account.Audit at @1: fired",
		"after deposit",
		"after withdraw",
		"** fires",
		"account.Fresh at @1: has not fired",
		"no transitions recorded since activation",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "error:") {
		t.Fatalf("script raised errors:\n%s", out)
	}
	// A chain that an aborted transaction's residue breaks, and one whose
	// start the journal has overwritten, say which they are.
	out = runScript(t,
		"defclass account balance:int=1000",
		"defmethod account deposit update a:int",
		"defmethod account withdraw update a:int",
		"deftrigger account Three(): relative(after deposit, after withdraw, after deposit) ==> print",
		"register account",
		"new account",
		"activate @1 Three",
		"call @1 deposit 1",
		"begin", "call @1 withdraw 1", "abort",
		"call @1 withdraw 2",
		"call @1 deposit 3",
		".why @1 Three",
	)
	if !strings.Contains(out, "chain broken by a rollback before step 3 of 4") || strings.Contains(out, "journal's tail") {
		t.Fatalf("rollback-broken chain:\n%s", out)
	}
	lines := []string{
		"defclass account balance:int=1000",
		"defmethod account deposit update a:int",
		"deftrigger account Fresh(): perpetual after deposit ==> print",
		"register account",
		"new account",
		"activate @1 Fresh",
	}
	for i := 0; i < 2000; i++ { // more than the object's journal holds
		lines = append(lines, "call @1 deposit 1")
	}
	out = runScript(t, append(lines, ".why @1 Fresh")...)
	if !strings.Contains(out, "history cut at the journal's tail: the chain starts at the oldest of") || strings.Contains(out, "rollback") {
		t.Fatalf("history past the journal's bound:\n%s", out[max(0, len(out)-400):])
	}

	// Usage and unknown-trigger errors surface as shell errors.
	out = runScript(t, ".why @1", ".why @1 NoSuch")
	if c := strings.Count(out, "error:"); c != 2 {
		t.Fatalf("want 2 errors, got %d:\n%s", c, out)
	}
}

// TestShellAbortOutcomeWriteSurvivesReopen: a method declared with a
// field=value body, called by a whole-view after-tabort trigger, writes
// in the abort's outcome phase; the write commits with the abort and is
// there after the database is reopened.
func TestShellAbortOutcomeWriteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	decl := []string{
		"defclass acct v:int=0 note:string",
		"defmethod acct stamp update note=aborted",
		"deftrigger acct Stamp(): perpetual after tabort ==> stamp()",
		"wholeview acct Stamp",
		"register acct",
	}
	run := func(lines ...string) string {
		var out bytes.Buffer
		sh, err := newShell(&out, dir)
		if err != nil {
			t.Fatal(err)
		}
		sh.run(bufio.NewScanner(strings.NewReader(strings.Join(append(decl, lines...), "\n"))), false)
		sh.close()
		return out.String()
	}
	if out := run("new acct", "activate @1 Stamp", "begin", "call @1 set_v 5", "abort"); strings.Contains(out, "error:") {
		t.Fatalf("script raised errors:\n%s", out)
	}
	if out := run("get @1 note", "get @1 v"); !strings.Contains(out, `"aborted"`) || !strings.Contains(out, "\n0\n") {
		t.Fatalf("after a reopen: want note \"aborted\" and v rolled back to 0:\n%s", out)
	}
}
