// Package wiretest holds helpers for the decoder fuzz targets: reading
// the committed seed corpora and mutating valid encodings into hostile
// ones.
package wiretest

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Corpus returns the inputs of the committed corpus files
// testdata/fuzz/<target>/<prefix>*, keyed by file name. Each file must
// hold one []byte value in Go's fuzz corpus encoding.
func Corpus(t testing.TB, target, prefix string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, prefix+"*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no %s/%s* corpus files: %v", target, prefix, err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(strings.TrimSpace(lit), ")")
		s, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file", p)
		}
		out[filepath.Base(p)] = []byte(s)
	}
	return out
}

// Mutations returns n copies of b, each with a few bytes flipped,
// truncated, or grown with junk, drawn from seed.
func Mutations(b []byte, seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		c := append([]byte(nil), b...)
		switch rng.Intn(3) {
		case 0: // flip bytes
			for j := 0; j < 1+rng.Intn(4); j++ {
				c[rng.Intn(len(c))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate
			c = c[:rng.Intn(len(c))]
		case 2: // grow with junk
			junk := make([]byte, rng.Intn(64))
			rng.Read(junk)
			c = append(c, junk...)
		}
		out = append(out, c)
	}
	return out
}
