package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// editKind is the class of a one-line edit. Each class is meant to
// land in one reuse tier of the incremental engine; the generator only
// keeps candidates whose tier the library confirms.
type editKind int

const (
	// editExpr rewrites the right-hand side of an assignment: the
	// flowgraph and every definition survive ("patched").
	editExpr editKind = iota
	// editDef moves a definition to another variable: the shape
	// survives, dataflow is re-run ("partial").
	editDef
	// editJump retargets a goto or swaps break and continue: the
	// flowgraph changes shape ("full").
	editJump
)

var kindTier = [...]string{editExpr: "patched", editDef: "partial", editJump: "full"}

// edit is one-line replacement of a program's text.
type edit struct {
	line int // 1-based
	text string
	kind editKind
}

var (
	assignRE = regexp.MustCompile(`^(\s*(?:[A-Za-z_]\w*:\s*)?)v(\d+) = (.*);$`)
	gotoRE   = regexp.MustCompile(`^(.*\bgoto )([A-Za-z_]\w*);$`)
	jumpRE   = regexp.MustCompile(`^(\s*(?:[A-Za-z_]\w*:\s*)?)(break|continue);$`)
	labelRE  = regexp.MustCompile(`^\s*([A-Za-z_]\w*):`)
	varRE    = regexp.MustCompile(`\bv(\d+)\b`)
)

// proposeEdit draws one candidate edit of the given kind, or reports
// that the text has no line it could apply to. Only assignments to the
// data variables v<i> are rewritten, so loop counters and the fuel
// guards of backward gotos stay intact; gotos keep their direction, so
// every loop keeps passing its guard.
func proposeEdit(rng *rand.Rand, lines []string, kind editKind) (edit, bool) {
	editable := assignRE.MatchString
	if kind == editJump {
		editable = func(l string) bool { return gotoRE.MatchString(l) || jumpRE.MatchString(l) }
	}
	var cands []int
	for i, l := range lines {
		if editable(l) {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return edit{}, false
	}
	i := cands[rng.Intn(len(cands))]
	l := lines[i]
	vars := dataVars(lines)
	switch kind {
	case editExpr:
		m := assignRE.FindStringSubmatch(l)
		rhs := randomExpr(rng, vars)
		if rhs == m[3] {
			return edit{}, false
		}
		return edit{i + 1, fmt.Sprintf("%sv%s = %s;", m[1], m[2], rhs), kind}, true
	case editDef:
		m := assignRE.FindStringSubmatch(l)
		old, _ := strconv.Atoi(m[2])
		v := (old + 1 + rng.Intn(vars-1)) % vars
		return edit{i + 1, fmt.Sprintf("%sv%d = %s;", m[1], v, m[3]), kind}, true
	}
	if m := jumpRE.FindStringSubmatch(l); m != nil {
		swap := map[string]string{"break": "continue", "continue": "break"}[m[2]]
		return edit{i + 1, m[1] + swap + ";", kind}, true
	}
	m := gotoRE.FindStringSubmatch(l)
	labels := labelLines(lines)
	from, ok := labels[m[2]]
	if !ok {
		return edit{}, false
	}
	forward := from > i
	var targets []string
	for name, at := range labels {
		if name != m[2] && (at > i) == forward {
			targets = append(targets, name)
		}
	}
	if len(targets) == 0 {
		return edit{}, false
	}
	sort.Strings(targets) // map order must not leak into the draw
	return edit{i + 1, m[1] + targets[rng.Intn(len(targets))] + ";", kind}, true
}

// dataVars returns the number of data variables v0..v<n-1> the text
// uses (at least 2).
func dataVars(lines []string) int {
	n := 2
	for _, l := range lines {
		for _, m := range varRE.FindAllStringSubmatch(l, -1) {
			if k, _ := strconv.Atoi(m[1]); k+1 > n {
				n = k + 1
			}
		}
	}
	return n
}

// randomExpr draws a small expression over the data variables.
func randomExpr(rng *rand.Rand, vars int) string {
	v := func() string { return "v" + strconv.Itoa(rng.Intn(vars)) }
	c := strconv.Itoa(1 + rng.Intn(9))
	switch rng.Intn(6) {
	case 0:
		return v() + " + " + c
	case 1:
		return v() + " - " + v()
	case 2:
		return v() + " * " + c
	case 3:
		return v() + " % " + c
	case 4:
		return c
	}
	return "f1(" + v() + ")"
}

// labelLines maps each label to the 0-based index of its line.
func labelLines(lines []string) map[string]int {
	out := map[string]int{}
	for i, l := range lines {
		if m := labelRE.FindStringSubmatch(l); m != nil && m[1] != "case" && m[1] != "default" {
			out[m[1]] = i
		}
	}
	return out
}

// applyEdit replaces one line of src, exactly as the daemon's PATCH
// handler does.
func applyEdit(src string, e edit) string {
	lines := strings.Split(src, "\n")
	lines[e.line-1] = e.text
	return strings.Join(lines, "\n")
}
