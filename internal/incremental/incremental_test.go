package incremental

import (
	"fmt"
	"strings"
	"testing"

	"jumpslice/internal/cfg"
	"jumpslice/internal/lang"
)

const base = `sum = 0;
positives = 0;
L3: if (eof()) goto L14;
read(x);
if (x > 0) goto L8;
sum = sum + f1(x);
goto L3;
L8: positives = positives + 1;
if (x % 2 != 0) goto L12;
sum = sum + f2(x);
goto L3;
L12: sum = sum + f3(x);
goto L3;
L14: write(sum);
write(positives);
`

func parse(t *testing.T, src string) *lang.Program {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func editLine(t *testing.T, src string, line int, text string) string {
	t.Helper()
	lines := strings.Split(src, "\n")
	if line < 1 || line > len(lines) {
		t.Fatalf("editLine: line %d out of range", line)
	}
	lines[line-1] = text
	return strings.Join(lines, "\n")
}

// sameProgram returns "" when q is want up to source positions: in
// cfg.Rebind's one walk, q has want's statement shape and no edited
// statement. Otherwise it returns what differs.
func sameProgram(want, q *lang.Program) string {
	_, edited, _, mismatch := cfg.Rebind(cfg.MustBuild(want), q)
	if mismatch == "" && len(edited) > 0 {
		return fmt.Sprintf("edited nodes %v", edited)
	}
	return mismatch
}

func TestSpliceLineEquivalence(t *testing.T) {
	p := parse(t, base)
	for _, tc := range []struct {
		line int
		text string
	}{
		{6, "sum = sum + f1(x) * 2;"},
		{4, "read(y);"},
		{8, "L8: positives = positives - 1;"}, // labeled target line, label kept
		{14, "L14: write(sum + 1);"},
		{15, "return;"},
		{7, "goto L14;"},                 // goto retarget
		{13, "  goto L8;"},               // indented
		{5, "if (x > 1) goto L12;"},      // one-line if retarget
		{3, "L3: if (eof()) goto L3;"},   // labeled one-line if
		{9, "if (x % 2 != 0) write(x);"}, // one-line if over an assignment arm
	} {
		q, ok := SpliceLine(p, tc.line, tc.text)
		if !ok {
			t.Fatalf("SpliceLine(%d, %q) refused", tc.line, tc.text)
		}
		want := parse(t, editLine(t, base, tc.line, tc.text))
		if d := sameProgram(want, q); d != "" {
			t.Fatalf("splice(%d) differs from reparse: %s", tc.line, d)
		}
		if got, wantSrc := lang.Format(q, lang.PrintOptions{}), lang.Format(want, lang.PrintOptions{}); got != wantSrc {
			t.Fatalf("splice(%d) formats differently:\n%s\nvs\n%s", tc.line, got, wantSrc)
		}
		if s := lang.StmtAtLine(q, tc.line); s == nil || s.Pos().Line != tc.line {
			t.Fatalf("splice(%d): statement not repositioned", tc.line)
		}
		// The original tree is untouched.
		if d := sameProgram(parse(t, base), p); d != "" {
			t.Fatalf("splice(%d) mutated the original program: %s", tc.line, d)
		}
	}
}

func TestSpliceLineRefusals(t *testing.T) {
	const loops = `L1: while (x > 0) {
  switch (x) {
  case 1:
    x = x - 1;
    break;
  default:
    if (x > 5) continue;
    x = 0;
  }
}
if (y)
  y = 1;
else
  y = 2;
if (x)
  x = 2;
if (x > 0) x = y +
  1;
switch (y) {
case 1:
  y = 0;
  break;
}
`
	for _, tc := range []struct {
		name string
		src  string
		line int
		text string
	}{
		{"multiline", base, 6, "x = 1;\ny = 2;"},
		{"two statements", base, 6, "x = 1; y = 2;"},
		{"if over assignment", base, 6, "if (x) y = 1;"},
		{"assignment over if", base, 5, "x = 1;"},
		{"goto out of scope", base, 6, "goto L99;"},
		{"labeled", base, 6, "L77: x = 1;"},
		{"labels dropped", base, 8, "positives = positives + 2;"},
		{"label renamed", base, 8, "L9: positives = positives + 2;"},
		{"label added to a labeled line", base, 8, "L7: L8: positives = 1;"},
		{"empty over assignment", base, 6, ";"},
		{"empty then-arm", base, 5, "if (x > 0) ;"},
		{"else added", base, 5, "if (x > 0) goto L8; else goto L3;"},
		{"then-arm labeled", base, 5, "if (x > 0) L20: goto L8;"},
		{"call statement", base, 6, "call f(x);"},
		{"comment left open", base, 6, "x = 1; /* until later"},
		{"parse error", base, 6, "x = ;"},
		{"no such line", base, 99, "x = 1;"},
		{"multi-line target", loops, 1, "L1: x = 1;"},
		{"compound target", loops, 2, "x = 1;"},
		{"continue outside loop", loops, 14, "  continue;"},
		{"break outside loop or switch", loops, 12, "  break;"},
		{"then-arm on its own line", loops, 15, "if (x) x = 3;"},
		{"then-arm expression spans lines", loops, 17, "if (x > 0) x = 1;"},
		{"if over a then-arm with an else", loops, 12, "  if (y) ;"},
	} {
		p := parse(t, tc.src)
		if _, ok := SpliceLine(p, tc.line, tc.text); ok {
			t.Errorf("%s: SpliceLine accepted", tc.name)
		}
	}
	// The loop/switch context is the target's own: the same jumps are
	// accepted where a reparse accepts them.
	p := parse(t, loops)
	for _, tc := range []struct {
		line int
		text string
	}{
		{4, "    continue;"},
		{5, "    continue;"},
		{7, "    if (x > 5) break;"},
		{8, "    goto L1;"},
		{21, "  break;"},
	} {
		q, ok := SpliceLine(p, tc.line, tc.text)
		if !ok {
			t.Errorf("line %d %q: SpliceLine refused", tc.line, tc.text)
			continue
		}
		want := parse(t, editLine(t, loops, tc.line, tc.text))
		if d := sameProgram(want, q); d != "" {
			t.Errorf("line %d: splice differs from reparse: %s", tc.line, d)
		}
	}
}

// TestSpliceLineNestingBound: a text nested deep enough to pass alone
// but not at its line's depth is refused, as Parse refuses the edited
// source.
func TestSpliceLineNestingBound(t *testing.T) {
	const depth = 990
	src := strings.Repeat("{\n", depth) + "x = 1;\n" + strings.Repeat("}\n", depth)
	p := parse(t, src)
	deep := "x = " + strings.Repeat("(", 20) + "1" + strings.Repeat(")", 20) + ";"
	if _, err := lang.Parse(editLine(t, src, depth+1, deep)); err == nil {
		t.Fatal("the deep edit parses; the test needs a deeper program")
	}
	if _, ok := SpliceLine(p, depth+1, deep); ok {
		t.Fatal("SpliceLine accepted an edit Parse rejects as too deep")
	}
	if _, ok := SpliceLine(p, depth+1, "x = (1);"); !ok {
		t.Fatal("SpliceLine refused a shallow edit of a deep line")
	}
}
