package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jumpslice/internal/cfg"
	"jumpslice/internal/core"
	"jumpslice/internal/incremental"
	"jumpslice/internal/lang"
)

// FuzzHandleSlice drives the /slice handler with arbitrary bodies and
// query parameters, deliberately bypassing the panic-recovery
// middleware: any panic crashes the fuzzer and is a finding. The
// other invariants: no request produces a 5xx (client input can never
// be a server fault on this path — the per-request timeout is
// disabled), and every non-2xx response carries the structured JSON
// error envelope.
func FuzzHandleSlice(f *testing.F) {
	files, _ := filepath.Glob("../../testdata/*.mc")
	for _, fn := range files {
		if data, err := os.ReadFile(fn); err == nil {
			f.Add(data, "positives", "14", "agrawal", false, true)
		}
	}
	f.Add([]byte(`{"source":"x = 1; write(x);","var":"x","line":2}`), "", "", "", true, false)
	f.Add([]byte("x = 1;"), "x", "1", "conventional", false, false)
	f.Add([]byte("x = 1;"), "x", "one", "magic", false, true)
	f.Add([]byte("while ("), "x", "1", "", false, false)
	f.Add([]byte{}, "", "-1", "structured", true, true)

	f.Fuzz(func(t *testing.T, body []byte, varName, lineStr, algo string, asJSON, explain bool) {
		if len(body) > 1<<16 {
			return // bound per-exec analysis cost
		}
		cfg := defaultConfig()
		cfg.Timeout = 0 // a fuzz exec must never 503 on time
		cfg.MaxBody = 1 << 17
		cfg.MaxStmts = 2000
		s := newServer(cfg, io.Discard)

		q := url.Values{}
		if varName != "" {
			q.Set("var", varName)
		}
		if lineStr != "" {
			q.Set("line", lineStr)
		}
		if algo != "" {
			q.Set("algo", algo)
		}
		if explain {
			q.Set("explain", "1")
		}
		req := httptest.NewRequest("POST", "/slice?"+q.Encode(), strings.NewReader(string(body)))
		if asJSON {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		s.mux.ServeHTTP(rec, req) // no recovery middleware: panics surface

		switch rec.Code {
		case 200, 400, 404, 405, 413, 422:
		default:
			t.Fatalf("status %d for client input (body %q, query %q): %s",
				rec.Code, body, q.Encode(), rec.Body.String())
		}
		if rec.Code != 200 {
			var ae apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil {
				t.Fatalf("status %d without the JSON error envelope: %v: %s", rec.Code, err, rec.Body.String())
			}
			if ae.Error.Code == "" || ae.Error.Status != rec.Code {
				t.Fatalf("malformed envelope for status %d: %+v", rec.Code, ae.Error)
			}
		}
	})
}

// FuzzAppendResponse compares the response appender with
// encoding/json on arbitrary strings, in every response type the
// appender encodes, and the byte-slice escaper that reason texts and
// listings go through with the string one.
func FuzzAppendResponse(f *testing.F) {
	f.Add("write(x);", "data-dep from 3", 10, -9)
	f.Add("if (a < b && c > d)\n", "\t\"\\  \xff\xc3\x01\x7f", -1, 10)
	f.Fuzz(func(t *testing.T, text, reason string, k1, k2 int) {
		r := &sliceResponse{
			Algorithm: reason, Var: text, Line: k1, Lines: []int{k1, k2}, Text: text,
		}
		p := &sessionPatchResponse{sliceResponse: *r, Session: text, Incremental: &core.IncrStats{
			Outcome: reason, Fallback: text,
			Edits: []incremental.Edit{{Op: incremental.Op(k1), Line: k2, Text: text}},
		}}
		for _, v := range []jsonResponse{r, p, &sessionResponse{Session: text}, &apiError{Error: errorBody{Code: text, Message: reason}}} {
			if got, want := appended(v), reference(t, v); !bytes.Equal(got, want) {
				t.Fatalf("%T: appender\n%s\nencoding/json\n%s", v, got, want)
			}
		}
		for _, s := range []string{text, reason} {
			if got, want := appendJSONString(nil, []byte(s)), appendJSONString(nil, s); !bytes.Equal(got, want) {
				t.Fatalf("%q: bytes escape as %s, the string as %s", s, got, want)
			}
		}
	})
}

// FuzzPatchSplice checks the PATCH handler's fast path on arbitrary
// sources: when the old line holds one statement (holdsOneStatement)
// and SpliceLine accepts the edit, the edited source parses to the
// spliced program. Unlike incremental's FuzzSpliceLine, the source is
// not formatted first, so a line may share tokens with statements
// that start elsewhere.
func FuzzPatchSplice(f *testing.F) {
	if fig3, err := os.ReadFile("../../testdata/fig3-a.mc"); err == nil {
		f.Add(string(fig3), 8, "L8: positives = positives + 2;")
		f.Add(string(fig3), 7, "goto L14;")
	}
	f.Add("read(x);\nif (x > 0)\n  y = 1;\nelse y = 2;\nwrite(y);\n", 4, "y = 3;")
	f.Add("switch (x) {\ncase 1: y = y + 1;\n}\n", 2, "y = 2;")
	f.Add("while (x > 0) {\n  x = x - 1; }\n", 2, "x = 0;")
	f.Add("x = 1; /* open\n*/ y = 2;\n", 1, "x = 2;")
	f.Add("L:\nx = 1;\ngoto L;\n", 2, "x = 2;")
	f.Fuzz(func(t *testing.T, src string, line int, text string) {
		p, err := lang.Parse(src)
		if err != nil {
			return
		}
		req := &patchRequest{Edit: &editRequest{Op: "replace", Line: line, Text: text}}
		edited, old, err := req.apply(src)
		if err != nil || !holdsOneStatement(old, line) {
			return
		}
		q, ok := incremental.SpliceLine(p, line, text)
		if !ok {
			return
		}
		want, err := lang.Parse(edited)
		if err != nil {
			t.Fatalf("line %d %q spliced, but the edited source does not parse: %v", line, text, err)
		}
		if _, edited, _, mismatch := cfg.Rebind(cfg.MustBuild(want), q); mismatch != "" || len(edited) > 0 {
			t.Fatalf("line %d %q: splice differs from the reparse: mismatch %q, edited nodes %v", line, text, mismatch, edited)
		}
		if got, w := lang.Format(q, lang.PrintOptions{}), lang.Format(want, lang.PrintOptions{}); got != w {
			t.Fatalf("line %d %q: splice formats differently:\n%s\nvs\n%s", line, text, got, w)
		}
		if got, w := lang.CountStatements(q), lang.CountStatements(want); got != w {
			t.Fatalf("line %d %q: %d statements, reparse %d", line, text, got, w)
		}
	})
}
