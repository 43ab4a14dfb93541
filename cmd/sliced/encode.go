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
//   - the explain response's reasons object, which encoding/json
//     would encode from a map[int][]string, keyed by line with the
//     keys in decimal-string order ("10" before "9");
//   - strings escaped as encoding/json does by default: <, > and &
//     as \u003c, \u003e and \u0026; U+2028 and U+2029 as \u2028 and
//     \u2029; every invalid UTF-8 byte as \ufffd; \b, \f, \n, \r and
//     \t short; other control bytes \u00XX in lower-case hex.
//
// TestResponseDigest pins the bytes over the corpus, and
// TestAppenderMatchesEncodingJSON compares the two encoders on
// adversarial values. The /debug endpoints, whose bodies are
// arbitrary snapshot structs off the hot path, keep writeJSON.
//
// A stored result record is the response body with request and
// duration_ns zeroed, behind the program's statement count; serving
// it stamps the two values back in (stampRecord), so a result hit
// never decodes or re-encodes.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"jumpslice/internal/core"
)

// jsonEnc appends one indented JSON value. first records whether the
// innermost open object or array has no member yet.
type jsonEnc struct {
	buf   []byte
	depth int
	first bool
	keys  []int // scratch for ordering the reasons object's keys
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
	e.send(w, status)
}

// send writes the appended body with the given status and releases
// e.
func (e *jsonEnc) send(w http.ResponseWriter, status int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(e.buf)
	e.release()
}

// release returns e to the pool.
func (e *jsonEnc) release() {
	if cap(e.buf) <= maxPooledJSON {
		*e = jsonEnc{buf: e.buf[:0], keys: e.keys[:0]}
		jsonEncs.Put(e)
	}
}

// A result record is a slice response body with request and
// duration_ns zeroed. Every such body opens with the request member
// and closes with duration_ns, so the record starts with recordHead
// and ends with recordTail, and the two zeros sit at fixed offsets.
// The tiers store it behind a stmtsWidth-byte big-endian prefix
// holding the program's statement count, which a hit logs in its wide
// event without the analysis.
const (
	stampRequest  = "{\n  \"request\": "
	stampDuration = ",\n  \"duration_ns\": "
	recordHead    = stampRequest + "0,\n"
	recordTail    = stampDuration + "0\n}\n"
	stmtsWidth    = 4
)

// appendRecord returns the stored value of r, a response to a program
// of stmts statements, in memory of its own.
func appendRecord(r *sliceResponse, stmts int) []byte {
	rec := *r
	rec.Request, rec.DurationNS = 0, 0
	e := jsonEncs.Get().(*jsonEnc)
	rec.appendJSON(e)
	e.buf = append(e.buf, '\n')
	data := binary.BigEndian.AppendUint32(make([]byte, 0, stmtsWidth+len(e.buf)), uint32(stmts))
	data = append(data, e.buf...)
	e.release()
	return data
}

// isRecord reports whether a stored value is a statement count and a
// framed record. A torn record, or one a daemon stored as compact
// JSON, is not.
func isRecord(data []byte) bool {
	if len(data) < stmtsWidth+len(recordHead)+len(recordTail) {
		return false
	}
	body := recordBody(data)
	return bytes.HasPrefix(body, []byte(recordHead)) && bytes.HasSuffix(body, []byte(recordTail))
}

// recordStmts returns the statement count a stored value carries.
func recordStmts(data []byte) int { return int(binary.BigEndian.Uint32(data)) }

// recordBody returns the record a stored value carries.
func recordBody(data []byte) []byte { return data[stmtsWidth:] }

// recordLines returns the length of a record's lines array: its
// elements sit one per line, and no string member holds a raw newline,
// so the first "\n  \"lines\": [" is that member's key.
func recordLines(rec []byte) int {
	_, rest, ok := bytes.Cut(rec, []byte("\n  \"lines\": ["))
	if !ok {
		return 0 // null
	}
	elems, _, _ := bytes.Cut(rest, []byte("]"))
	return max(0, bytes.Count(elems, []byte("\n"))-1)
}

// stampRecord sends record rec as a 200 response carrying request id
// and the wall-clock duration since start. The record is written in
// place between the two stamped values, which are all the pooled
// buffer holds, so a hit copies no record bytes of its own.
func stampRecord(w http.ResponseWriter, rec []byte, id uint64, start time.Time) {
	e := jsonEncs.Get().(*jsonEnc)
	e.buf = strconv.AppendUint(append(e.buf, stampRequest...), id, 10)
	head := len(e.buf)
	e.buf = strconv.AppendInt(e.buf, time.Since(start).Nanoseconds(), 10)
	e.buf = append(e.buf, "\n}\n"...)
	mid := rec[len(stampRequest)+len("0") : len(rec)-len("0\n}\n")]
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(e.buf)+len(mid)))
	w.WriteHeader(http.StatusOK)
	w.Write(e.buf[:head])
	w.Write(mid)
	w.Write(e.buf[head:])
	e.release()
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

// provenance appends the reasons and listing members of an explained
// slice, rendered once straight from its provenance: reasons as
// encoding/json encodes a map[int][]string of each line's texts, and
// the listing as a string.
func (e *jsonEnc) provenance(p *core.Provenance) {
	rd := p.Render()
	defer rd.Release()
	if n := rd.Lines(); n > 0 {
		e.key("reasons")
		e.keys = e.keys[:0]
		for i := range n {
			e.keys = append(e.keys, i)
		}
		slices.SortFunc(e.keys, func(i, j int) int { return compareLines(rd.Line(i), rd.Line(j)) })
		e.open('{')
		for _, i := range e.keys {
			e.elem()
			e.buf = append(e.buf, '"')
			e.buf = strconv.AppendInt(e.buf, int64(rd.Line(i)), 10)
			e.buf = append(e.buf, `": `...)
			e.open('[')
			for j := range rd.NumReasons(i) {
				e.elem()
				e.buf = appendJSONString(e.buf, rd.Reason(i, j))
			}
			e.close(']')
		}
		e.close('}')
	}
	if listing := rd.Listing(); len(listing) > 0 {
		e.key("listing")
		e.buf = appendJSONString(e.buf, listing)
	}
}

// compareLines orders two lines (positive ints) as their decimal
// strings compare, which is the order of the reasons object's keys,
// without formatting them: the longer is cut to the shorter's length,
// and on a tie the shorter, which is the smaller, comes first.
func compareLines(a, b int) int {
	x, y := a, b
	for px, py := pow10(a), pow10(b); px != py; {
		if px > py {
			x, px = x/10, px/10
		} else {
			y, py = y/10, py/10
		}
	}
	if x != y {
		return cmp.Compare(x, y)
	}
	return cmp.Compare(a, b)
}

// pow10 returns the largest power of ten not above the positive x.
func pow10(x int) int {
	p := 1
	for x >= 10 {
		x, p = x/10, p*10
	}
	return p
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
func appendJSONString[S ~string | ~[]byte](dst []byte, s S) []byte {
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
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
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
	if r.Provenance != nil {
		e.provenance(r.Provenance)
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
