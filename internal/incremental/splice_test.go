package incremental

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
)

// checkSplice splices text over line of p, the parse of src, and
// requires an accepted splice to equal the reparse of the edited
// source: the reparse succeeds, cfg.Rebind of the splice onto the
// reparse's flowgraph finds no shape difference and no edited
// statement, both format alike, and both have the same labels (each
// map entry the wrapper in its own tree) and statement count. It
// reports whether the splice was accepted and whether the reparse
// succeeded.
func checkSplice(t *testing.T, src string, p *lang.Program, line int, text string) (spliced, parsed bool) {
	t.Helper()
	q, spliced := SpliceLine(p, line, text)
	lines := strings.Split(src, "\n")
	if line < 1 || line > len(lines) {
		if spliced {
			t.Fatalf("line %d outside the source, splice of %q accepted", line, text)
		}
		return false, false
	}
	lines[line-1] = text
	edited := strings.Join(lines, "\n")
	want, err := lang.Parse(edited)
	if !spliced {
		return false, err == nil
	}
	if err != nil {
		t.Fatalf("line %d %q: spliced, but the reparse fails: %v", line, text, err)
	}
	if d := sameProgram(want, q); d != "" {
		t.Fatalf("line %d %q: splice differs from the reparse: %s", line, text, d)
	}
	if got, w := lang.Format(q, lang.PrintOptions{}), lang.Format(want, lang.PrintOptions{}); got != w {
		t.Fatalf("line %d %q: splice formats differently:\n%s\nvs\n%s", line, text, got, w)
	}
	if got, w := labelNames(q), labelNames(want); !slices.Equal(got, w) {
		t.Fatalf("line %d %q: labels %v, reparse %v", line, text, got, w)
	}
	lang.WalkProgram(q, func(s lang.Stmt) {
		if l, ok := s.(*lang.LabeledStmt); ok && q.Labels[l.Label] != l {
			t.Fatalf("line %d %q: label %s maps outside the spliced tree", line, text, l.Label)
		}
	})
	if got, w := lang.CountStatements(q), lang.CountStatements(want); got != w {
		t.Fatalf("line %d %q: %d statements, reparse %d", line, text, got, w)
	}
	return true, true
}

func labelNames(p *lang.Program) []string {
	var out []string
	for l := range p.Labels {
		out = append(out, l)
	}
	slices.Sort(out)
	return out
}

var (
	// lineParts splits a formatted line into indentation, label
	// prefix and statement text.
	lineParts = regexp.MustCompile(`^(\s*)((?:[A-Za-z_]\w*: )*)(.*)$`)
	condGoto  = regexp.MustCompile(`^(if \(.*\) goto )\w+;$`)
	plainGoto = regexp.MustCompile(`^goto \w+;$`)
	assign    = regexp.MustCompile(`^\w+ = .*;$`)
)

// spliceCandidate is one candidate text for a line; mustSplice marks
// the edit forms perfbench's edit-session generates, which the splice
// must accept whenever the reparse succeeds.
type spliceCandidate struct {
	text       string
	mustSplice bool
}

// candidates returns the candidate texts for one line of a formatted
// program whose labels are given.
func candidates(l string, labels []string) []spliceCandidate {
	m := lineParts.FindStringSubmatch(l)
	indent, prefix, body := m[1], m[2], m[3]
	keep := indent + prefix
	out := []spliceCandidate{
		{l, false},
		{keep + "x = 1;", assign.MatchString(body)},
		{keep + ";", false},
		{keep + "if (x) ;", false},
	}
	if prefix != "" {
		out = append(out,
			spliceCandidate{indent + body, false},            // label dropped
			spliceCandidate{indent + "Lnew: " + body, false}, // renamed
			spliceCandidate{keep + "Lnew: " + body, false},   // one added
		)
	} else {
		out = append(out, spliceCandidate{indent + "Lnew: " + body, false})
	}
	for _, name := range append(labels, "Lundefined") {
		out = append(out, spliceCandidate{keep + "goto " + name + ";", plainGoto.MatchString(body)})
		if c := condGoto.FindStringSubmatch(body); c != nil {
			out = append(out, spliceCandidate{keep + c[1] + name + ";", true})
		}
	}
	switch body {
	case "break;":
		out = append(out, spliceCandidate{keep + "continue;", true})
	case "continue;":
		out = append(out, spliceCandidate{keep + "break;", true})
	}
	return out
}

// TestSpliceMatchesReparse splices every candidate text over every
// line of generated structured and unstructured programs and checks
// each accepted splice against a reparse of the edited source; the
// edit forms an editor session makes (a goto retargeted, in a one-line
// if or alone; break and continue swapped; a labeled assignment
// keeping its label) must splice whenever the reparse succeeds.
func TestSpliceMatchesReparse(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	tried, spliced, forms := 0, 0, 0
	for _, gen := range []func(progen.Config) *lang.Program{progen.Structured, progen.Unstructured} {
		for seed := int64(0); seed < seeds; seed++ {
			src := lang.Format(gen(progen.Config{Seed: seed, Stmts: 60}), lang.PrintOptions{})
			p := parse(t, src)
			labels := labelNames(p)
			for i, l := range strings.Split(src, "\n") {
				for _, c := range candidates(l, labels) {
					tried++
					ok, parsed := checkSplice(t, src, p, i+1, c.text)
					if ok {
						spliced++
					}
					if c.mustSplice && parsed {
						forms++
						if !ok {
							t.Errorf("seed %d line %d: editor edit %q refused", seed, i+1, c.text)
						}
					}
				}
			}
		}
	}
	t.Logf("%d of %d candidates spliced; %d editor-form edits", spliced, tried, forms)
	if spliced < tried/5 || forms < 100 {
		t.Fatalf("corpus too thin: %d of %d spliced, %d editor-form edits", spliced, tried, forms)
	}
}

// FuzzSpliceLine splices arbitrary text over a line of an arbitrary
// program, formatted first so that each line holds whole statements
// (SpliceLine's view of a line), and requires every accepted splice
// to equal the reparse.
func FuzzSpliceLine(f *testing.F) {
	fig3, err := os.ReadFile("../../testdata/fig3-a.mc")
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []struct {
		line int
		text string
	}{
		{8, "L8: positives = positives + 2;"},
		{8, "positives = positives + 2;"},
		{7, "goto L14;"},
		{7, "goto L99;"},
		{5, "if (x > 0) goto L12;"},
		{3, "L3: if (eof()) goto L3;"},
		{3, "if (eof()) goto L14;"},
		{6, "if (x) y = 1;"},
		{6, "break;"},
		{6, ";"},
		{12, "L12: sum = sum + ((f3(x)));"},
	} {
		f.Add(string(fig3), c.line, c.text)
	}
	f.Add("while (x) {\n  if (x > 1) break;\n  x = x - 1;\n}\n", 3, "continue;")
	f.Add(";;;", 2, ";\x00") // a NUL byte must not end the reparse early
	f.Fuzz(func(t *testing.T, src string, line int, text string) {
		p, err := lang.Parse(src)
		if err != nil {
			return
		}
		src = lang.Format(p, lang.PrintOptions{})
		if p, err = lang.Parse(src); err != nil {
			t.Fatalf("formatted program does not parse: %v", err)
		}
		checkSplice(t, src, p, line, text)
	})
}
