package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"jumpslice/internal/lang"
	"jumpslice/internal/progen"
	"jumpslice/internal/slicecache"
)

// tierSizes are BenchmarkServeTiers' program sizes as progen budgets;
// seed 1 parses to about 30, 270 and 2000 statements. Larger programs
// are left out: Reach's memory grows quadratically with size.
var tierSizes = []int{16, 200, 1650}

// BenchmarkServeTiers times one /slice request answered by each tier
// the daemon keeps, at three program sizes, so each tier can be
// compared with recomputing:
//
//	cold       a never-seen program posted to its owner in a 3-node
//	           fleet: parse, analyze, slice, format, store the record
//	analysis   a solo daemon's analysis-cache hit: slice, format and
//	           append the response; the result tier is smaller than
//	           one record, so no request replays one
//	result     the owner's in-memory result tier
//	disk       a daemon whose disk store was reopened; the memory tier
//	           is smaller than one record, so every request reads disk
//	proxied    a non-owner proxying to an owner that holds the record
//
// Run it with: go test ./cmd/sliced -run '^$' -bench ServeTiers
func BenchmarkServeTiers(b *testing.B) {
	nodes := startCluster(b, 3, nil)
	soloCfg := testConfig()
	soloCfg.ResultBytes = 1
	_, solo := newTestServerConfig(b, soloCfg)
	seq := 0 // numbers the cold programs across every run of every size
	for _, budget := range tierSizes {
		p := progen.Unstructured(progen.Config{Seed: 1, Stmts: budget})
		wcs := progen.WriteCriteria(p)
		src := lang.Format(p, lang.PrintOptions{})
		prog, err := lang.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		query := fmt.Sprintf("var=%s&line=%d", wcs[len(wcs)-1].Var, wcs[len(wcs)-1].Line)
		key := slicecache.KeyOf(src)
		owner := nodeByAddr(nodes, nodes[0].s.cluster.ring.Owner(key[:]))
		var ingress *clusterNode
		for _, nd := range nodes {
			if nd != owner {
				ingress = nd
				break
			}
		}
		prefix := fmt.Sprintf("stmts=%d/", lang.CountStatements(prog))

		b.Run(prefix+"cold", func(b *testing.B) {
			// A trailing comment makes each program never-seen without
			// changing its analysis.
			srcs := make([]string, b.N)
			owners := make([]string, b.N)
			for i := range srcs {
				seq++
				srcs[i] = fmt.Sprintf("%s// cold %d\n", src, seq)
				k := slicecache.KeyOf(srcs[i])
				owners[i] = nodes[0].s.cluster.ring.Owner(k[:])
			}
			b.ResetTimer()
			for i := range srcs {
				benchPost(b, owners[i], query, srcs[i], "miss")
			}
		})
		b.Run(prefix+"analysis", func(b *testing.B) {
			addr := strings.TrimPrefix(solo.URL, "http://")
			benchPost(b, addr, query, src, "")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPost(b, addr, query, src, "hit")
			}
		})
		b.Run(prefix+"result", func(b *testing.B) {
			benchPost(b, owner.addr, query, src, "")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPost(b, owner.addr, query, src, "result")
			}
		})
		b.Run(prefix+"disk", func(b *testing.B) {
			dir := b.TempDir()
			_, ts, stop := bootDisk(b, dir, 0)
			benchPost(b, strings.TrimPrefix(ts.URL, "http://"), query, src, "miss")
			stop()
			_, ts, stop = bootDisk(b, dir, 1)
			defer stop()
			addr := strings.TrimPrefix(ts.URL, "http://")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPost(b, addr, query, src, "disk")
			}
		})
		b.Run(prefix+"proxied", func(b *testing.B) {
			benchPost(b, owner.addr, query, src, "")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPost(b, ingress.addr, query, src, "result")
			}
		})
	}
}

// benchPost posts one slice request and fails unless it answers 200
// with the wanted X-Cache verdict ("" accepts any).
func benchPost(b *testing.B, addr, query, src, cache string) {
	resp, err := http.Post("http://"+addr+"/slice?"+query, "text/plain", strings.NewReader(src))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s answered %d", addr, resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); cache != "" && got != cache {
		b.Fatalf("%s answered X-Cache %q, want %q", addr, got, cache)
	}
}
