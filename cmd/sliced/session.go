package main

// Editor sessions: the incremental serving surface.
//
// A session pins one program's analysis warm so that the repeated
// edit → re-slice loop an editor integration produces is served by
// the incremental engine (core.ReanalyzeProgram) instead of the full
// pipeline. The session's analysis lives in the shared slicecache
// under a domain-separated key — byte-accounted against the same
// budget as anonymous /slice traffic and LRU-evicted under pressure —
// so an idle session costs at most its cache residency, and a PATCH
// that finds its analysis evicted transparently rebuilds cold.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"jumpslice/internal/baselines"
	"jumpslice/internal/bits"
	"jumpslice/internal/core"
	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
	"jumpslice/internal/slicecache"
)

// session is the daemon-side record of one open document: its current
// source text, the identity its analysis is cached under, and the
// slice it last served. mu serializes edits to this session;
// concurrent PATCHes of different sessions do not contend.
type session struct {
	mu     sync.Mutex
	id     string
	source string
	last   lastSlice
}

// lastSlice is the slice a session served on the analysis it has
// committed: the pre-edit slice of the next PATCH, when that PATCH
// asks for the same algorithm and criterion, and the body that PATCH
// answers with when the edit missed the slice (core.SliceStands). The
// cached analysis the next PATCH reads back is a Rebind of the one
// this slice ran on, so the node IDs agree. The zero value (no
// algorithm) records nothing; a session holds it whenever its
// committed analysis changed without a slice being served (a failed
// criterion, explain or request).
type lastSlice struct {
	algo  string
	crit  core.Criterion
	nodes *bits.Set     // intraprocedural algorithms; sdg numbers nodes per procedure
	body  sliceResponse // as served, without its provenance
}

// is reports whether l is the slice of algo and crit.
func (l *lastSlice) is(algo string, crit core.Criterion) bool {
	return l.algo != "" && l.algo == algo && l.crit == crit
}

// sessionFor resolves the {id} path suffix of /session/{id} to the
// live session, or answers 404.
func (s *server) sessionFor(w http.ResponseWriter, r *http.Request) *session {
	id := strings.TrimPrefix(r.URL.Path, "/session/")
	if id == "" || strings.Contains(id, "/") {
		s.fail(w, r, http.StatusNotFound, "not_found", "no such endpoint %s", r.URL.Path)
		return nil
	}
	s.smu.Lock()
	sess := s.sessions[id]
	s.smu.Unlock()
	if sess == nil {
		s.fail(w, r, http.StatusNotFound, "unknown_session", "no open session %q", id)
		return nil
	}
	return sess
}

// sessionResponse answers POST /session and DELETE /session/{id}.
type sessionResponse struct {
	Session    string `json:"session"`
	Request    uint64 `json:"request"`
	Statements int    `json:"statements,omitempty"`
	Deleted    bool   `json:"deleted,omitempty"`
}

// sessionPatchResponse answers PATCH /session/{id}: the slice after
// the edit, what the incremental engine did to produce it, and the
// line-level delta against the pre-edit slice of the same criterion.
type sessionPatchResponse struct {
	sliceResponse
	Session      string          `json:"session"`
	Incremental  *core.IncrStats `json:"incremental"`
	LinesAdded   []int           `json:"lines_added"`
	LinesRemoved []int           `json:"lines_removed"`
}

// editRequest is the one-line edit form of a PATCH body:
// {"edit":{"op":"replace","line":N,"text":"..."}}.
type editRequest struct {
	Op   string `json:"op"`
	Line int    `json:"line"`
	Text string `json:"text"`
}

// patchRequest is the JSON form of a PATCH /session/{id} body. Raw
// (non-JSON) bodies are a full source replacement.
type patchRequest struct {
	Source string       `json:"source"`
	Edit   *editRequest `json:"edit"`
}

// handleSessionOpen (POST /session) analyzes the submitted program,
// parks the analysis in the cache under the new session's key, and
// returns the session ID for subsequent PATCH traffic.
func (s *server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	source, err := s.readSource(w, r)
	if err != nil {
		s.failErr(w, r, "request", err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	a, err := s.buildAnalysis(ctx, source, reqInfoFrom(r).spanLog())
	if err != nil {
		s.failErr(w, r, "analyze", err)
		return
	}
	reqInfoFrom(r).setStmts(a.Stmts)
	id := strconv.FormatInt(s.sessID.Add(1), 10)
	s.cache.PutKey(slicecache.SessionKey(id), source, a)
	s.smu.Lock()
	s.sessions[id] = &session{id: id, source: source}
	s.smu.Unlock()
	writeResponse(w, http.StatusCreated, &sessionResponse{
		Session:    id,
		Request:    requestID(r),
		Statements: a.Stmts,
	})
}

// handleSessionPatch (PATCH /session/{id}) applies one edit — a
// one-line replacement or a full source swap — re-analyzes through
// the incremental engine, and re-slices the given criterion. The
// X-Incremental header reports the reuse tier ("patched", "partial",
// "full"), and X-Cache whether the session's analysis was still cached
// ("hit") or had been evicted ("miss"); the body carries the slice
// plus its delta against the pre-edit slice. A failed edit (bad line,
// parse error, size limit) leaves the session exactly as it was.
//
// A spliced one-line edit that missed the slice last served for the
// same algorithm and criterion is not re-sliced: the served body
// stands (core.SliceStands; the splice moves no line, so the lines and
// the text stand too), with an empty delta, counted as
// incr.slices_reused. Explain responses always re-slice.
func (s *server) handleSessionPatch(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFor(w, r)
	if sess == nil {
		return
	}
	crit, algo, err := parseCriterion(r.URL.Query(), core.Criterion{}, "")
	if err != nil {
		s.failErr(w, r, "request", err)
		return
	}
	explain, err := boolParam(r, "explain")
	if err != nil {
		s.failErr(w, r, "request", err)
		return
	}
	req, err := s.readPatch(w, r)
	if err != nil {
		s.failErr(w, r, "request", err)
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	id := requestID(r)
	ri := reqInfoFrom(r)
	ri.setAlgo(algo)
	start := time.Now()

	sess.mu.Lock()
	defer sess.mu.Unlock()

	newSrc, oldLine, err := req.apply(sess.source)
	if err != nil {
		s.failErr(w, r, "edit", err)
		return
	}
	key := slicecache.SessionKey(sess.id)
	prev, warm := s.cache.GetKey(key) // nil after eviction: plain cold run
	verdict := slicecache.Miss
	if warm {
		verdict = slicecache.Hit
	}
	w.Header().Set("X-Cache", verdict.String())

	// Fast path: a one-line edit against a warm analysis is spliced
	// into the previous AST without reparsing the program. Anything
	// else — full source swap, splice refusal, evicted session — goes
	// through a parse; ReanalyzeProgram decides what survives either
	// way, and falls back to the full pipeline when prev is nil.
	var prog *lang.Program
	var stmts int
	if prev != nil && req.Edit != nil && holdsOneStatement(oldLine, req.Edit.Line) {
		// A splice swaps one line statement for one with the same
		// statement count, so the count carries over.
		prog, _ = incremental.SpliceLine(prev.Prog, req.Edit.Line, req.Edit.Text)
		stmts = prev.Stmts
	}
	spliced := prog != nil
	if prog == nil {
		if prog, stmts, err = s.parseProgram(newSrc); err != nil {
			s.failErr(w, r, "analyze", err)
			return
		}
	}
	a, stats, err := core.ReanalyzeProgram(ctx, prev, prog, s.reg, ri.spanLog())
	var detached *core.Analysis
	if err == nil {
		detached, err = s.detach(a, stmts)
	}
	if err != nil {
		s.failErr(w, r, "analyze", err)
		return
	}
	w.Header().Set("X-Incremental", stats.Outcome)
	ri.setStmts(stmts)

	// The edit is committed before slicing: the session now holds the
	// new program whether or not the criterion below resolves. Until
	// a slice of it is served, no slice of it is known.
	sess.source = newSrc
	s.cache.PutKey(key, newSrc, detached)
	last := sess.last
	sess.last = lastSlice{}

	var resp *sessionPatchResponse
	if spliced && !explain && last.is(algo, crit) &&
		core.SliceStands(prev, a, stats, last.body.Algorithm, crit, last.nodes) {
		resp = &sessionPatchResponse{sliceResponse: last.body, Session: sess.id, Incremental: stats}
		s.reg.Counter("incr.slices_reused").Add(1)
	} else {
		body, sl := s.renderSlice(w, r, a, algo, crit, explain)
		if body == nil {
			return // renderSlice already answered
		}
		resp = &sessionPatchResponse{sliceResponse: *body, Session: sess.id, Incremental: stats}
		if prev != nil {
			resp.LinesAdded, resp.LinesRemoved = sliceDelta(prev, a, &last, algo, crit, sl, resp.Lines)
		}
		last = lastSlice{algo: algo, crit: crit, body: *body}
		last.body.Provenance = nil
		if sl != nil {
			last.nodes = sl.Nodes
		}
	}
	sess.last = last
	resp.Request = id
	resp.DurationNS = time.Since(start).Nanoseconds()
	ri.setSliceLines(len(resp.Lines))
	writeResponse(w, http.StatusOK, resp)
}

// handleSessionDelete (DELETE /session/{id}) closes the session and
// refunds its cache residency.
func (s *server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFor(w, r)
	if sess == nil {
		return
	}
	s.smu.Lock()
	delete(s.sessions, sess.id)
	s.smu.Unlock()
	s.cache.DeleteKey(slicecache.SessionKey(sess.id))
	writeResponse(w, http.StatusOK, &sessionResponse{
		Session: sess.id,
		Request: requestID(r),
		Deleted: true,
	})
}

// apply computes the session's post-edit source text and returns the
// text of the line a one-line edit replaced ("" for a source swap). A
// one-line edit replaces the line's bytes in place; lines are
// numbered as strings.Split(source, "\n") numbers them, except that
// the empty element after a final newline (or of an empty source) is
// no line.
func (req *patchRequest) apply(source string) (edited, old string, err error) {
	if req.Edit == nil {
		return req.Source, "", nil
	}
	e := req.Edit
	if e.Op != "replace" {
		return "", "", httpErrorf(http.StatusBadRequest, "bad_request",
			`unsupported edit op %q (want "replace")`, e.Op)
	}
	lo, ok := lineStart(source, e.Line)
	if !ok {
		return "", "", httpErrorf(http.StatusBadRequest, "bad_request",
			"edit line %d outside the program (1..%d)", e.Line, lineCount(source))
	}
	hi := len(source)
	if i := strings.IndexByte(source[lo:], '\n'); i >= 0 {
		hi = lo + i
	}
	return source[:lo] + e.Text + source[hi:], source[lo:hi], nil
}

// holdsOneStatement reports whether line n of the source, the given
// text, is one statement and nothing else. SpliceLine sees the tree,
// not the source, and relies on that: a token of another statement on
// the line (an else, a case label, a brace) or a comment opened there
// would be replaced with the line but survive the splice.
func holdsOneStatement(text string, n int) bool {
	_, err := lang.ParseStmt(text, n, 0)
	return err == nil
}

// lineStart returns the byte offset at which the 1-based line n of
// source starts, or false if source has no line n.
func lineStart(source string, n int) (int, bool) {
	if n < 1 {
		return 0, false
	}
	lo := 0
	for ; n > 1; n-- {
		i := strings.IndexByte(source[lo:], '\n')
		if i < 0 {
			return 0, false
		}
		lo += i + 1
	}
	return lo, lo < len(source)
}

// lineCount returns the number of lines of source as lineStart
// numbers them: a final newline ends the last line, it starts none.
func lineCount(source string) int {
	n := strings.Count(source, "\n")
	if source != "" && !strings.HasSuffix(source, "\n") {
		n++
	}
	return n
}

// sliceDelta reports the line-level delta between the pre- and
// post-edit slices of one criterion. The pre-edit slice is the one the
// session served last when that was of the same algorithm and
// criterion; otherwise it is computed against the previous (still
// warm) analysis, and a criterion the old program cannot resolve
// yields no delta. Intraprocedural slices are compared node by node
// through the allocation-free set-difference view; sdg slices (sl
// nil), whose node numbering is per procedure, by their line sets.
func sliceDelta(prev, cur *core.Analysis, last *lastSlice, algo string, crit core.Criterion, sl *core.Slice, lines []int) (added, removed []int) {
	known := last.is(algo, crit)
	if sl == nil {
		old := last.body.Lines
		if !known {
			ps, err := prev.ProgramSet()
			if err != nil {
				return nil, nil
			}
			psl, err := ps.SliceInterproc(crit)
			if err != nil {
				return nil, nil
			}
			old = psl.Lines()
		}
		return missingLines(lines, old), missingLines(old, lines)
	}
	old := last.nodes
	if !known {
		psl, err := baselines.Slice(prev, algo, crit)
		if err != nil {
			return nil, nil
		}
		old = psl.Nodes
	}
	if old.Cap() != sl.Nodes.Cap() {
		return nil, nil
	}
	added = deltaLines(sl.Nodes.Diff(old), cur)
	removed = deltaLines(old.Diff(sl.Nodes), prev)
	return added, removed
}

// missingLines returns the lines of the sorted list a that the sorted
// list b lacks.
func missingLines(a, b []int) []int {
	var out []int
	for _, l := range a {
		if i := sort.SearchInts(b, l); i == len(b) || b[i] != l {
			out = append(out, l)
		}
	}
	return out
}

// deltaLines maps a node-set difference to its sorted distinct lines.
func deltaLines(d interface{ Next(int) int }, a *core.Analysis) []int {
	var lines []int
	for i := d.Next(0); i >= 0; i = d.Next(i + 1) {
		if l := a.CFG.Nodes[i].Line; l > 0 {
			lines = append(lines, l)
		}
	}
	sort.Ints(lines)
	out := lines[:0]
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			out = append(out, l)
		}
	}
	return out
}

// requestContext derives the handler context, applying the analysis
// deadline when one is configured.
func (s *server) requestContext(r *http.Request) (ctx context.Context, cancel context.CancelFunc) {
	if s.cfg.Timeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.Timeout)
	}
	return context.WithCancel(r.Context())
}

// jsonBody reports whether a request body should be decoded as JSON:
// either the client said so (Content-Type) or the body is
// unambiguously a JSON object. The sniff matters in practice — curl
// -d sends JSON under a form content type — and cannot misread a
// program: the language has no string literals, so a brace-opened
// body that json.Valid accepts is never valid program text.
func jsonBody(r *http.Request, body []byte) bool {
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		return true
	}
	trimmed := bytes.TrimSpace(body)
	return len(trimmed) > 0 && trimmed[0] == '{' && json.Valid(trimmed)
}

// readSource reads a POST /session body: raw program text, or JSON
// {"source": ...}.
func (s *server) readSource(w http.ResponseWriter, r *http.Request) (string, error) {
	body, err := s.readBody(w, r)
	if err != nil {
		return "", err
	}
	source := string(body)
	if jsonBody(r, body) {
		var req struct {
			Source string `json:"source"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return "", httpErrorf(http.StatusBadRequest, "bad_request", "decoding JSON body: %v", err)
		}
		source = req.Source
	}
	if strings.TrimSpace(source) == "" {
		return "", httpErrorf(http.StatusBadRequest, "bad_request", "empty program source")
	}
	return source, nil
}

// readPatch reads a PATCH /session/{id} body: JSON with exactly one
// of "source" (full replacement) or "edit" (one-line replacement), or
// a raw non-JSON body as a full replacement.
func (s *server) readPatch(w http.ResponseWriter, r *http.Request) (*patchRequest, error) {
	body, err := s.readBody(w, r)
	if err != nil {
		return nil, err
	}
	req := &patchRequest{}
	if jsonBody(r, body) {
		if err := json.Unmarshal(body, req); err != nil {
			return nil, httpErrorf(http.StatusBadRequest, "bad_request", "decoding JSON body: %v", err)
		}
	} else {
		req.Source = string(body)
	}
	switch {
	case req.Edit != nil && req.Source != "":
		return nil, httpErrorf(http.StatusBadRequest, "bad_request",
			`body sets both "source" and "edit"; send one`)
	case req.Edit == nil && strings.TrimSpace(req.Source) == "":
		return nil, httpErrorf(http.StatusBadRequest, "bad_request",
			`body must carry replacement "source" or an "edit"`)
	}
	return req, nil
}

// readBody drains the request body under the configured byte limit.
// A declared Content-Length within the limit sizes the buffer, so the
// usual request is read in one allocation. The limit reader stays in
// place either way: a chunked body, or one that runs past its declared
// length, still answers 413 once it crosses the limit.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := readSized(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody), r.ContentLength, s.cfg.MaxBody)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, httpErrorf(http.StatusRequestEntityTooLarge, "body_too_large",
				"request body exceeds the %d byte limit", mbe.Limit)
		}
		return nil, httpErrorf(http.StatusBadRequest, "bad_request", "reading body: %v", err)
	}
	return body, nil
}

// readSized reads rd to EOF like io.ReadAll, into a buffer sized for
// the declared length n when 0 < n <= limit. The spare byte past n
// lets the read see EOF without growing the buffer.
func readSized(rd io.Reader, n, limit int64) ([]byte, error) {
	if n <= 0 || n > limit {
		return io.ReadAll(rd)
	}
	body := make([]byte, n+1)
	m, err := io.ReadFull(rd, body)
	switch err {
	case io.EOF, io.ErrUnexpectedEOF:
		return body[:m], nil // the declared length, or a short body
	case nil:
		// Longer than declared: the rest, still under the limit.
		rest, err := io.ReadAll(rd)
		return append(body, rest...), err
	}
	return nil, err
}

// parseCriterion overlays the var/line/algo query parameters on c
// and algo (a JSON body's values, or zero) and validates the result:
// the one criterion validator /slice and PATCH /session/{id} share.
func parseCriterion(q url.Values, c core.Criterion, algo string) (core.Criterion, string, error) {
	if v := q.Get("var"); v != "" {
		c.Var = v
	}
	if v := q.Get("line"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return c, "", httpErrorf(http.StatusBadRequest, "bad_request", "bad line %q: %v", v, err)
		}
		c.Line = n
	}
	if v := q.Get("algo"); v != "" {
		algo = v
	}
	if algo == "" {
		algo = "agrawal"
	}
	switch {
	case c.Var == "":
		return c, "", httpErrorf(http.StatusBadRequest, "bad_request", "missing criterion variable (var)")
	case c.Line <= 0:
		return c, "", httpErrorf(http.StatusBadRequest, "bad_request", "missing or non-positive criterion line (line)")
	}
	for _, a := range knownAlgos {
		if a == algo {
			return c, algo, nil
		}
	}
	return c, "", httpErrorf(http.StatusBadRequest, "unknown_algorithm",
		"unknown algorithm %q (want %s)", algo, strings.Join(knownAlgos, ", "))
}

// boolParam parses an optional boolean query parameter strictly: an
// absent parameter is false, anything strconv.ParseBool rejects is a
// structured 422 — "?explain=yes" must not silently mean false.
func boolParam(r *http.Request, name string) (bool, error) {
	vs, present := r.URL.Query()[name]
	if !present {
		return false, nil
	}
	v := ""
	if len(vs) > 0 {
		v = vs[0]
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, httpErrorf(http.StatusUnprocessableEntity, "invalid_parameter",
			"parameter %s must be a boolean (1/0/true/false), got %q", name, v)
	}
	return b, nil
}
