package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// responseDigests pins the exact bytes the daemon sends for a fixed
// corpus: a SHA-256 per program over the /slice response of every
// write criterion, with and without explain (algo=sdg for the
// procedure programs, every intraprocedural algorithm for the paper's
// figures), plus the session and error-envelope scenarios below. A
// procedure program's explain responses, and the session's sdg explain
// edit, have entries of their own (name-explain), apart from the text
// responses. The request ID and duration_ns are pinned, so the digests
// cover everything else in the body. The response encoder may be rewritten
// for speed, but the bytes it produces may not change: a rewrite must
// pass this test without regenerating it.
var responseDigests = map[string]string{
	"errors":              "53cd3a67f6e89e83dda35e9018ce0485de1b189b3905e6580f21facc7e448957",
	"multiproc-1":         "e2d6512d3c6886e507c7070016681be826405408017de69575e9593ae72fa4a1",
	"multiproc-1-explain": "7d86f9fda40f4cdfb0d8b12c0a6b45195c1910e4c9597a521761784010dca3c2",
	"multiproc-2":         "7ac04a3ed2e13727e7cbfa04387d4159771f53c702d30737551d71e390ad5bcb",
	"multiproc-2-explain": "98b06b103be404e586ea89c973ba1deb3b7bf22bd1f1037b1f3269142523b3cd",
	"multiproc-3":         "a61be6c8fe365f6e1fbb937694de261bdb6c58cf4e5b50f9dd1f60367899e0ee",
	"multiproc-3-explain": "e75b59b8bc8cea0863ca302a8c5240f3e7fbe36b36ed9c117392a6f7f08c94d0",
	"multiproc-4":         "81dbbe8feea2eea58966a0f77de558558b81a88f4ec3520221447c6b7ad4d667",
	"multiproc-4-explain": "fd094eda8792320a68520226072f0f561d442b9d62ed437cd33dc752d9e0932d",
	"paper-Figure-1-a":    "31a998aaf7103ea5f6318ed910794edbc28755470c81265456e4cc71ead61cb9",
	"paper-Figure-10-a":   "866e6473bfb4d69429fc345a300bfc852eccc22a98f6642513e7e40c48e65438",
	"paper-Figure-14-a":   "ea55b77f0e11a35042bd62cf0fb321b575d1e56306d9731ed7e2b321b6a125c3",
	"paper-Figure-16-a":   "a4999a95dacab8d3228f1d9c83a697cc65efc8e54765f89a45a10bcad87e80ae",
	"paper-Figure-3-a":    "6ae9f0387c315fb2ea6704e522fba99af9c570b17d984a63d892e2789baa0047",
	"paper-Figure-5-a":    "77acea91dc595a9101780df68d5d7af5e93eddef286273fdb6c0e88e1c7674ee",
	"paper-Figure-8-a":    "39fa5f78f5152524b652f56c9398eee8dbe30e9b2aa40725d27c605cb1c8d1b5",
	"session":             "721dd1f02cd361d52fe91da819433e15a1917aca7e2ab752a09c4ec7a4d6502f",
	"session-sdg-explain": "9490ab9b12ce1d0e057782ccf8ab05eb9a3487268d55918bc010bc365e9df2d7",
	"structured-120-1":    "2d2260acead30643bc15e879bd3a5004ae2c7235e296c398e487ecb0b4b59df1",
	"structured-120-2":    "168c860662e00909e2957565c8e47cbb871cb2a26e7aa24183c9eae8cbb0ed3e",
	"structured-120-3":    "9f3a71ee7ff91860cad7085d0f52bbb8c1fdd1ea412f273b1fa577c39b64d7de",
	"structured-200-1":    "4a3ec84541b81b1b8ae15c2ab8f23bad8a8dfb785697492e156b11d8a2bc351c",
	"structured-200-2":    "ffe4624ad44d26ba247ec441ea95a356c099a16e09a2ae6673fc8e8a267a17f5",
	"structured-200-3":    "9a47f54b26f0f824d4e3276538ef7b7bd6832841ca7c02aa9e677fe8f378012a",
	"structured-40-1":     "c043fffd8ea24da90d6611b29ec29420709d28e160ed5dc9beb8b8f1135335a2",
	"structured-40-2":     "6be6b4006a482d3db16e480d8cdf18bb65460d7da77e7c88cca13a2d1a5851b9",
	"structured-40-3":     "8f0c4134b8ac40148e95f09409a4d5bcba467f126502a9746e1df9b5e8a2ee5d",
	"structured-400-1":    "377b1ec66f891dafc3e3f01fb5fb81652249f124d65fe68f9b5dd4b90f602976",
	"structured-400-2":    "d648d9a014219d8c9eaa6e9d9f11fa4ce6bc4a3bb0620cd285df36e54347dd02",
	"structured-400-3":    "cdd3fe5581bfb43936f8480ed5b381c1c17fb88d8a7d7482b68280deebbc1fbf",
	"unstructured-120-1":  "5aeb48b6715d370b9d4c2fee19b65a4b6adc68e69dff2ff22bc2a899b588da0c",
	"unstructured-120-2":  "9a937ad6a3f25876d3c802af5d9876ddcc4d50ee5a95fc62ef9c537770b80419",
	"unstructured-120-3":  "342e212761d4787d8f47dd19c607289236109f25fe1124879901a88daa34dfb8",
	"unstructured-200-1":  "c09785ea5da4a6aa1d4b278a7f90aaf00a4740bf78669ca96d0bd3bf3478025f",
	"unstructured-200-2":  "4aa7694a62f251f81035aab47b4d3f54aadb21f2b582dd5bd809b839d3a209dd",
	"unstructured-200-3":  "8235556fe88122caaaa24f15984cdb2808ac773ead5039a78f2c6f1110759683",
	"unstructured-40-1":   "605687595aa322e96dc8f8838668002dfee63423b7117d7f9b4f5366c5864499",
	"unstructured-40-2":   "462005a0e13b31d290c30fb0d281b314a9bafbaa160f8e17c0bcfd7e3e643746",
	"unstructured-40-3":   "906db4d2efd7f026923b868eefb7007ac75dcc6ffb533c5a98734999a672a40b",
	"unstructured-400-1":  "9c7c9357775f02fc78dbc9ac46f8a853b289784e99ef56dc527b98a18fa1ca3b",
	"unstructured-400-2":  "7fb26622b6bbf73b9727d5eea0e16886d4176a22bca44e9dcc8d8415c4ade91d",
	"unstructured-400-3":  "1bbbd6d2fb5970f043403941022207d0f96aa4db93cceb5440094ee7368301a7",
}

// pinnedRequestID is the request ID every digest request carries.
const pinnedRequestID = 4242

// durationField matches the one wall-clock field of a response.
var durationField = regexp.MustCompile(`"duration_ns": [0-9]+`)

// responseCorpus returns the digest corpus as program sources: the
// programs of the library's TestCorpusDigest, printed canonically so
// every statement carries the line it is printed on.
func responseCorpus() map[string]string {
	out := map[string]string{}
	for _, stmts := range []int{40, 120, 200, 400} {
		for seed := int64(1); seed <= 3; seed++ {
			c := progen.Config{Seed: seed, Stmts: stmts}
			out[fmt.Sprintf("structured-%d-%d", stmts, seed)] = lang.Format(progen.Structured(c), lang.PrintOptions{})
			out[fmt.Sprintf("unstructured-%d-%d", stmts, seed)] = lang.Format(progen.Unstructured(c), lang.PrintOptions{})
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		p := progen.MultiProc(progen.Config{Seed: seed, Stmts: 30, Procs: 3})
		out[fmt.Sprintf("multiproc-%d", seed)] = lang.Format(p, lang.PrintOptions{})
	}
	for _, f := range paper.All() {
		out["paper-"+strings.ReplaceAll(f.Name, " ", "-")] = f.Source
	}
	return out
}

// digestServer is a daemon whose result tier holds the whole digest
// corpus, so a repeated request is answered from its stored record.
func digestServer() *server {
	cfg := testConfig()
	cfg.ResultBytes = 64 << 20
	return newServer(cfg, io.Discard)
}

// digestDo sends one request straight to the route mux with the
// pinned request ID and returns the recorded response, its body's
// duration_ns pinned to 0.
func digestDo(t *testing.T, s *server, method, target, contentType, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	r := httptest.NewRequest(method, target, strings.NewReader(body))
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	r = r.WithContext(context.WithValue(r.Context(), reqIDKey, uint64(pinnedRequestID)))
	rec := httptest.NewRecorder()
	s.mux.ServeHTTP(rec, r)
	out := rec.Body.Bytes()
	if n := len(durationField.FindAll(out, -1)); n > 1 {
		t.Fatalf("%s %s: %d duration fields", method, target, n)
	}
	return rec, durationField.ReplaceAll(out, []byte(`"duration_ns": 0`))
}

// putDigest feeds one response into h, NUL-terminated so adjacent
// responses cannot run together.
func putDigest(h hash.Hash, body []byte) {
	h.Write(body)
	h.Write([]byte{0})
}

func checkDigest(t *testing.T, name string, h hash.Hash) {
	t.Helper()
	if got, want := hex.EncodeToString(h.Sum(nil)), responseDigests[name]; got != want {
		t.Errorf("%s: digest = %q, want %q", name, got, want)
	}
}

func TestResponseDigest(t *testing.T) {
	s := digestServer()
	for name, src := range responseCorpus() {
		t.Run(name, func(t *testing.T) {
			prog, err := lang.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			crits := progen.WriteCriteria(prog)
			algos := []string{"agrawal"}
			switch {
			case len(prog.Procs) > 0:
				crits, algos = progen.MainWriteCriteria(prog), []string{"sdg"}
			case strings.HasPrefix(name, "paper-"):
				algos = []string{"agrawal", "agrawal-lst", "structured", "conservative", "conventional"}
			}
			if len(crits) == 0 {
				t.Fatal("no write criteria")
			}
			// A procedure program's explain responses are digested apart
			// from its text responses, under name-explain, so the sdg
			// text bytes are pinned on their own.
			h, hExplain := sha256.New(), sha256.New()
			split := len(prog.Procs) > 0
			for _, c := range crits {
				for _, algo := range algos {
					for _, explain := range []bool{false, true} {
						q := url.Values{"var": {c.Var}, "line": {fmt.Sprint(c.Line)}, "algo": {algo}}
						if explain {
							q.Set("explain", "1")
						}
						target := "/slice?" + q.Encode()
						rec, body := digestDo(t, s, http.MethodPost, target, "text/plain", src)
						if explain && split {
							putDigest(hExplain, body)
						} else {
							putDigest(h, body)
						}
						if rec.Code == http.StatusUnprocessableEntity && (algo == "structured" || algo == "conservative") {
							continue // Figures 12 and 13 refuse unstructured jumps
						}
						if rec.Code != http.StatusOK {
							t.Fatalf("%s: status %d: %s", target, rec.Code, body)
						}
						// The repeat is answered from the stored record and
						// must send the same bytes.
						rec2, again := digestDo(t, s, http.MethodPost, target, "text/plain", src)
						if tier := rec2.Header().Get("X-Cache"); tier != "result" {
							t.Fatalf("%s: repeat X-Cache = %q, want result", target, tier)
						}
						if string(again) != string(body) {
							t.Fatalf("%s: result-tier response differs:\n%s\nfirst:\n%s", target, again, body)
						}
					}
				}
			}
			checkDigest(t, name, h)
			if split {
				checkDigest(t, name+"-explain", hExplain)
			}
		})
	}
}

// TestResponseDigestSession pins the session responses: the open, a
// patched, a partial and a full edit (with and without explain and
// sdg), and the close. The sdg explain edit is digested on its own,
// under session-sdg-explain.
func TestResponseDigestSession(t *testing.T) {
	s := digestServer()
	h, hExplain := sha256.New(), sha256.New()
	const src = "read(a);\nread(b);\nif (a < b && b > 0) {\n  c = a + 1;\n}\nd = b + 1;\nx = c;\ny = x;\nwrite(y);\n"
	rec, body := digestDo(t, s, http.MethodPost, "/session", "text/plain", src)
	if rec.Code != http.StatusCreated {
		t.Fatalf("open: status %d: %s", rec.Code, body)
	}
	putDigest(h, body)
	id := "1"
	for _, step := range []struct {
		query, contentType, body, tier string
	}{
		{"var=y&line=9", "application/json", `{"edit":{"op":"replace","line":4,"text":"  c = a + 2;"}}`, "patched"},
		{"var=y&line=9&explain=1", "application/json", `{"edit":{"op":"replace","line":7,"text":"x = d;"}}`, "patched"},
		{"var=y&line=9&explain=true", "application/json", `{"edit":{"op":"replace","line":6,"text":"c = b + 1;"}}`, "partial"},
		{"var=y&line=9&algo=conventional", "text/plain", src + "write(x);\n", "full"},
		{"var=x&line=10&algo=sdg&explain=1", "application/json", `{"edit":{"op":"replace","line":10,"text":"write(d);"}}`, ""},
	} {
		rec, body := digestDo(t, s, http.MethodPatch, "/session/"+id+"?"+step.query, step.contentType, step.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("patch %s: status %d: %s", step.query, rec.Code, body)
		}
		if got := rec.Header().Get("X-Incremental"); step.tier != "" && got != step.tier {
			t.Fatalf("patch %s: X-Incremental = %q, want %q", step.query, got, step.tier)
		}
		// A same-shape edit reports its replaced statements; a full
		// fallback reports only its reason.
		if edits := strings.Contains(string(body), `"edits": [`); edits != (step.tier != "full") {
			t.Fatalf("patch %s: edits reported = %v on tier %q in %s", step.query, edits, step.tier, body)
		}
		if strings.Contains(step.query, "algo=sdg&explain=1") {
			putDigest(hExplain, body)
		} else {
			putDigest(h, body)
		}
	}
	rec, body = digestDo(t, s, http.MethodDelete, "/session/"+id, "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", rec.Code, body)
	}
	putDigest(h, body)
	checkDigest(t, "session", h)
	checkDigest(t, "session-sdg-explain", hExplain)
}

// TestResponseDigestErrors pins the error envelope for a program
// fault and an oversized body.
func TestResponseDigestErrors(t *testing.T) {
	s := digestServer()
	h := sha256.New()
	for _, c := range []struct {
		body   string
		status int
	}{
		{"x = = 1; <&>", http.StatusUnprocessableEntity},
		{strings.Repeat("x", int(s.cfg.MaxBody)+1), http.StatusRequestEntityTooLarge},
	} {
		rec, body := digestDo(t, s, http.MethodPost, "/slice?var=x&line=1", "text/plain", c.body)
		if rec.Code != c.status {
			t.Fatalf("status %d, want %d: %s", rec.Code, c.status, body)
		}
		putDigest(h, body)
	}
	checkDigest(t, "errors", h)
}
