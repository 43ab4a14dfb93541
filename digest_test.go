package jumpslice_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"strings"
	"testing"

	"jumpslice/internal/core"
	"jumpslice/internal/lang"
	"jumpslice/internal/paper"
	"jumpslice/internal/progen"
)

// corpusDigests pins every text the library renders for a fixed
// corpus: a SHA-256 per program over the whole-program listing (plain
// and numbered), the listing of every SliceAll slice, the explain
// reasons and annotated listing of the last criterion, the SDG slice
// text (MultiProc programs) and the one-line summary of every
// statement. The printer, the parser and the explain renderer may be
// rewritten for speed, but the bytes they produce may not change: a
// rewrite must pass this test without regenerating it.
var corpusDigests = map[string]string{
	"multiproc-1":        "0094af394c77ecfb8f061247cf8d784226d7f57ab5cbb72d6151be79639594d3",
	"multiproc-2":        "5549b0fbcead27aeb2e52b29c744bf6516b3b583c93b5299d0d07ecfe3b769d4",
	"multiproc-3":        "5395e77679b93e28d7d6510a3c967deca39898713bb43931e978030b685461c9",
	"multiproc-4":        "dbda812095de77bcc4130f9d789011df556035556ebf0a8c90e1639cae70a2ab",
	"paper-Figure-1-a":   "40ee861863ff873d65fecd85aebd2b0b79db45e079cb7f52647434f62281c02c",
	"paper-Figure-10-a":  "beac8e20bd5f9e1e4a598c1fdcd256ba44717ceda09e591bcb6811c4fa53ac2a",
	"paper-Figure-14-a":  "3c2e6e807f3e7f236f0d2db2b14a485cbb0a08fdb08ace0cdd3bb8e0cac08c8d",
	"paper-Figure-16-a":  "b0d9b3e55be366d5ee13335ad5a6e8f4ae9a249dbbc427d365658acbdc338b67",
	"paper-Figure-3-a":   "55f039ccc514f3eec8df4ed67934b048fabe2575e23a78a16448bd302d673c67",
	"paper-Figure-5-a":   "e6235ad3f9a78aadd500307db388669e06de6e4ad50574153fa74fcae646f04b",
	"paper-Figure-8-a":   "e426260b51d65c357fdfff30a06ea0aac73c32a229c9e7a61fe934acba4c111e",
	"structured-120-1":   "ca7589bf9e957a04bfc59d5e65d2b6b1b74ccc926faf5593071810b3a3ef5edc",
	"structured-120-2":   "9143beb29ab4c90834038214da0cf82f6de0a125e95bf9654d0cd001cec57e77",
	"structured-120-3":   "40ce0dc6e986ffb6ffd7660fa78f22ad92b56371960e5965f307260bb5ca5d35",
	"structured-200-1":   "11257bbf8691cf1d3e3aba44191a5d121e14b4554063b6927d7cae9e93f96e37",
	"structured-200-2":   "3dad9cd0a9a2ab15d250f3c7de28216908a53d6b0c32a638e2ffd8427b7a2258",
	"structured-200-3":   "ef1b3af947844fb9f6c04ce02b74a705d495caf3aef05b87aec2175569d26e66",
	"structured-40-1":    "28d2d2dd2035ce5fa56ccafb84a7479d2d9c86b85954d3706724e28d0e3774d8",
	"structured-40-2":    "14aebd434235d3fd8e27b4b8431c5b32368dcbf6d62f5c4e5f91c9effd6fd5fd",
	"structured-40-3":    "2dbf57915629cd2ab7b12e25745f3f736e872e37922e606d34e696d46b7fe7c4",
	"structured-400-1":   "4943a4188f8f0ee575d298f3c30c3633b41fade5723c85ccad9d8aaf3890062f",
	"structured-400-2":   "0a91872e6d002f97026e25822c2bb0858e480ae63b31cb6f1eab981e73775c83",
	"structured-400-3":   "81fe975c2a315a921ad8ffe63b67f8e23a9b986b03b4043d2749b01ddd4464db",
	"unstructured-120-1": "0c80c62b11a7cddf1a242e42ced0c2e958c05c84d2323468e4c397c59d2587f6",
	"unstructured-120-2": "aa11fa1526a66d523d637b1057edce8768c71075f4104a1b92c8fc3afbf58d22",
	"unstructured-120-3": "567f5f85aed7cf8a08fdbdfba0feb0bf78bc83d06441e9a87666d9f0b54ab9da",
	"unstructured-200-1": "28d15302e3d01212854193a4cbf0b35c38afc58f356ecaa928d1a27f5be17918",
	"unstructured-200-2": "c59a2e9dcac9e71c75f6bd753d256cfe2df64b11292421b821432fc1b943ad83",
	"unstructured-200-3": "0402cb10a7253450c777ee880a9f9de3130e2054d0fae513588846d5c9897bc2",
	"unstructured-40-1":  "16455e34c91d7b919b01e4fd677421951075d2b3f915dd39c70f3284921cc112",
	"unstructured-40-2":  "9bef2ca75c98650f7ba7f0333a6348f96862979fa12eb9304a108aa6a1679fb7",
	"unstructured-40-3":  "c8d0c1320166c0d0b4ec7a64fffa6f6806e2632634ef217f5aed22bd4b57fb81",
	"unstructured-400-1": "e63fba752c9fe2987036743b063b5a3e7dd162414f1a2b513a90264875f7f5b8",
	"unstructured-400-2": "a7798ae9c82b6840b6be14e61641853ca2f1f40c7c6118675990a05f262c9ffa",
	"unstructured-400-3": "be0e4ae11b4cbed868f08bf343db134bcf387ed3c63e1b0a6510333795945983",
}

// digestCorpus is the corpus of the digest test: seeded structured
// and unstructured progen programs of several sizes, three-procedure
// program sets, and the paper's figures. Generated programs are
// re-parsed from their canonical text so every statement carries the
// line it is printed on, as a user's source would.
func digestCorpus(t *testing.T) map[string]*lang.Program {
	out := map[string]*lang.Program{}
	add := func(name string, gen *lang.Program) {
		prog, err := lang.Parse(lang.Format(gen, lang.PrintOptions{}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = prog
	}
	for _, stmts := range []int{40, 120, 200, 400} {
		for seed := int64(1); seed <= 3; seed++ {
			c := progen.Config{Seed: seed, Stmts: stmts}
			add(fmt.Sprintf("structured-%d-%d", stmts, seed), progen.Structured(c))
			add(fmt.Sprintf("unstructured-%d-%d", stmts, seed), progen.Unstructured(c))
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		add(fmt.Sprintf("multiproc-%d", seed), progen.MultiProc(progen.Config{Seed: seed, Stmts: 30, Procs: 3}))
	}
	for _, f := range paper.All() {
		out["paper-"+strings.ReplaceAll(f.Name, " ", "-")] = f.Parse()
	}
	return out
}

func TestCorpusDigest(t *testing.T) {
	for name, prog := range digestCorpus(t) {
		t.Run(name, func(t *testing.T) {
			h := sha256.New()
			if err := digestProgram(h, prog, len(prog.Procs) > 0); err != nil {
				t.Fatal(err)
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := corpusDigests[name]; got != want {
				t.Errorf("digest = %q, want %q", got, want)
			}
		})
	}
}

// digestProgram writes every rendered text of prog to w, each text
// followed by a NUL so adjacent texts cannot run together.
func digestProgram(w hash.Hash, prog *lang.Program, interproc bool) error {
	put := func(s string) {
		io.WriteString(w, s)
		w.Write([]byte{0})
	}
	put(lang.Format(prog, lang.PrintOptions{}))
	put(lang.Format(prog, lang.PrintOptions{LineNumbers: true}))
	lang.WalkProgram(prog, func(s lang.Stmt) { put(lang.StmtString(s)) })

	var crits []core.Criterion
	criteria := progen.WriteCriteria
	if interproc {
		criteria = progen.MainWriteCriteria
	}
	for _, wc := range criteria(prog) {
		crits = append(crits, core.Criterion{Var: wc.Var, Line: wc.Line})
	}
	if len(crits) == 0 {
		return fmt.Errorf("no write criteria")
	}
	if interproc {
		ps, err := core.AnalyzeProgramSet(prog)
		if err != nil {
			return err
		}
		for _, c := range crits {
			s, err := ps.SliceInterproc(c)
			if err != nil {
				return err
			}
			put(s.Format())
		}
		return nil
	}

	a, err := core.Analyze(prog)
	if err != nil {
		return err
	}
	slices, err := a.SliceAll(crits)
	if err != nil {
		return err
	}
	for _, s := range slices {
		put(s.Format())
	}
	p, err := slices[len(slices)-1].Explain()
	if err != nil {
		return err
	}
	reasons, err := json.Marshal(p.LineReasons()) // map keys marshal sorted
	if err != nil {
		return err
	}
	put(string(reasons))
	put(p.Listing())
	return nil
}
