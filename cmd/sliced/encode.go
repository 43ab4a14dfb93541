package main

// Response encoding for the serving path. The /slice, session and
// error-envelope responses are appended field by field into one
// pooled buffer, already indented, instead of being reflected over by
// encoding/json and re-indented. The bytes are exactly those of
// json.NewEncoder(w) with SetIndent("", "  "):
//
//   - two-space indentation and a trailing newline;
//   - omitempty fields dropped when empty; a nil slice is null, an
//     empty one [];
//   - map[int] keys sorted as decimal strings ("10" before "9");
//   - strings escaped as encoding/json does by default: <, > and &
//     as \u003c, \u003e and \u0026; U+2028 and U+2029 as \u2028 and
//     \u2029; every invalid UTF-8 byte as \ufffd; \b, \f, \n, \r and
//     \t short; other control bytes \u00XX in lower-case hex.
//
// TestResponseDigest pins the bytes over the corpus, and
// TestAppenderMatchesEncodingJSON compares the two encoders on
// adversarial values. The /debug endpoints, whose bodies are
// arbitrary snapshot structs off the hot path, keep writeJSON.

import (
	"bytes"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"jumpslice/internal/core"
)

// jsonEnc appends one indented JSON value. first records whether the
// innermost open object or array has no member yet.
type jsonEnc struct {
	buf   []byte
	depth int
	first bool
	keys  []int // scratch for sorting map keys
}

// Pooled buffers start at maxPooledJSON, so a response that fits is
// appended without growing; one that grew past it (a large explain
// response) is dropped rather than pooled, so it does not pin its
// memory. A smaller start would let append's growth overshoot the
// bound on responses just under it and drop those buffers too.
var jsonEncs = sync.Pool{New: func() any { return &jsonEnc{buf: make([]byte, 0, maxPooledJSON)} }}

const maxPooledJSON = 64 << 10

// jsonResponse is a response the appender can encode.
type jsonResponse interface {
	appendJSON(e *jsonEnc)
}

// writeResponse sends v with the given status as one indented JSON
// body.
func writeResponse(w http.ResponseWriter, status int, v jsonResponse) {
	e := jsonEncs.Get().(*jsonEnc)
	v.appendJSON(e)
	e.buf = append(e.buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(e.buf)
	if cap(e.buf) <= maxPooledJSON {
		*e = jsonEnc{buf: e.buf[:0], keys: e.keys[:0]}
		jsonEncs.Put(e)
	}
}

// open starts an object or array.
func (e *jsonEnc) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.first = true
}

// close ends the innermost object or array; an empty one stays on
// one line, as encoding/json's indenter leaves it.
func (e *jsonEnc) close(c byte) {
	e.depth--
	if !e.first {
		e.newline()
	}
	e.buf = append(e.buf, c)
	e.first = false
}

func (e *jsonEnc) newline() {
	e.buf = append(e.buf, '\n')
	for i := 0; i < e.depth; i++ {
		e.buf = append(e.buf, "  "...)
	}
}

// elem starts the next array element.
func (e *jsonEnc) elem() {
	if !e.first {
		e.buf = append(e.buf, ',')
	}
	e.first = false
	e.newline()
}

// key starts the next object member; name needs no escaping.
func (e *jsonEnc) key(name string) {
	e.elem()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, `": `...)
}

func (e *jsonEnc) intField(name string, v int64) {
	e.key(name)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

func (e *jsonEnc) uintField(name string, v uint64) {
	e.key(name)
	e.buf = strconv.AppendUint(e.buf, v, 10)
}

func (e *jsonEnc) boolField(name string, v bool) {
	e.key(name)
	e.buf = strconv.AppendBool(e.buf, v)
}

func (e *jsonEnc) stringField(name, v string) {
	e.key(name)
	e.buf = appendJSONString(e.buf, v)
}

// ints appends an []int member: null when nil.
func (e *jsonEnc) ints(name string, v []int) {
	e.key(name)
	if v == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.open('[')
	for _, x := range v {
		e.elem()
		e.buf = strconv.AppendInt(e.buf, int64(x), 10)
	}
	e.close(']')
}

// stringList appends a []string value (not a member): null when nil.
func (e *jsonEnc) stringList(v []string) {
	if v == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.open('[')
	for _, s := range v {
		e.elem()
		e.buf = appendJSONString(e.buf, s)
	}
	e.close(']')
}

// reasons appends a non-empty map[int][]string member, keys in the
// order encoding/json sorts them: as decimal strings.
func (e *jsonEnc) reasons(name string, m map[int][]string) {
	e.key(name)
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.SortFunc(e.keys, compareDecimal)
	e.open('{')
	for _, k := range e.keys {
		e.elem()
		e.buf = append(e.buf, '"')
		e.buf = strconv.AppendInt(e.buf, int64(k), 10)
		e.buf = append(e.buf, `": `...)
		e.stringList(m[k])
	}
	e.close('}')
}

// compareDecimal orders two ints as their decimal strings compare.
func compareDecimal(a, b int) int {
	var x, y [20]byte
	return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
}

const lowerHex = "0123456789abcdef"

// jsonSafe marks the bytes a JSON string carries unescaped: printable
// ASCII other than the quote, the backslash and the HTML characters.
var jsonSafe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// appendJSONString appends s as a JSON string literal, escaped as
// encoding/json escapes it with HTML escaping on.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if jsonSafe[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', lowerHex[b>>4], lowerHex[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', lowerHex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func (r *sliceResponse) appendJSON(e *jsonEnc) {
	e.open('{')
	r.appendFields(e)
	e.close('}')
}

// appendFields appends the members of a slice response to an open
// object, in declaration order, honouring the omitempty tags.
func (r *sliceResponse) appendFields(e *jsonEnc) {
	e.uintField("request", r.Request)
	e.stringField("algorithm", r.Algorithm)
	e.stringField("var", r.Var)
	e.intField("line", int64(r.Line))
	e.ints("lines", r.Lines)
	if len(r.JumpLines) > 0 {
		e.ints("jump_lines", r.JumpLines)
	}
	if r.Traversals != 0 {
		e.intField("traversals", int64(r.Traversals))
	}
	e.stringField("text", r.Text)
	if len(r.Reasons) > 0 {
		e.reasons("reasons", r.Reasons)
	}
	if r.Listing != "" {
		e.stringField("listing", r.Listing)
	}
	e.intField("duration_ns", r.DurationNS)
}

func (r *sessionPatchResponse) appendJSON(e *jsonEnc) {
	e.open('{')
	r.sliceResponse.appendFields(e)
	e.stringField("session", r.Session)
	e.key("incremental")
	appendIncrStats(e, r.Incremental)
	e.ints("lines_added", r.LinesAdded)
	e.ints("lines_removed", r.LinesRemoved)
	e.close('}')
}

// appendIncrStats appends a core.IncrStats value: null when nil.
func appendIncrStats(e *jsonEnc, st *core.IncrStats) {
	if st == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.open('{')
	e.stringField("outcome", st.Outcome)
	e.intField("phases_reused", int64(st.PhasesReused))
	e.intField("phases_recomputed", int64(st.PhasesRecomputed))
	e.boolField("condensation_patched", st.CondensationPatched)
	if st.Fallback != "" {
		e.stringField("fallback", st.Fallback)
	}
	if len(st.Edits) > 0 {
		e.key("edits")
		e.open('[')
		for _, ed := range st.Edits {
			e.elem()
			e.open('{')
			e.intField("op", int64(ed.Op))
			e.intField("line", int64(ed.Line))
			e.stringField("text", ed.Text)
			e.close('}')
		}
		e.close(']')
	}
	e.close('}')
}

func (r *sessionResponse) appendJSON(e *jsonEnc) {
	e.open('{')
	e.stringField("session", r.Session)
	e.uintField("request", r.Request)
	if r.Statements != 0 {
		e.intField("statements", int64(r.Statements))
	}
	if r.Deleted {
		e.boolField("deleted", true)
	}
	e.close('}')
}

func (r *apiError) appendJSON(e *jsonEnc) {
	e.open('{')
	e.key("error")
	e.open('{')
	e.stringField("code", r.Error.Code)
	e.stringField("message", r.Error.Message)
	e.intField("status", int64(r.Error.Status))
	e.uintField("request_id", r.Error.RequestID)
	e.close('}')
	e.close('}')
}
