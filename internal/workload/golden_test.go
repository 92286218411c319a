package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// update rewrites testdata/stream.golden from this run instead of
// checking against it:
//
//	go test ./internal/workload -run StreamGolden -update
//
// Only a change that means to alter a generated operation stream may use
// it.
var update = flag.Bool("update", false, "rewrite testdata/stream.golden from this run")

// TestGeneratorStreamGolden pins the operation stream across builds: one
// SHA-256 digest per YCSB workload, seed and key count over every
// generated op's fields, followed by the generator's next rng.Int63 (so a
// sampler that draws one number more or less changes the digest even if
// the ops agree). 20000 ops give D and E about 1000 inserts each, every
// one a reskew; at 100 keys that walks the zipfian's key range from 99
// past 1023.
func TestGeneratorStreamGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# SHA-256 per case; regenerate with -update, do not edit by hand.\n")
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		for _, seed := range []int64{1, 42} {
			for _, keys := range []int{100, 2000, 10000} {
				spec, err := YCSB(name)
				if err != nil {
					t.Fatal(err)
				}
				spec.Keys = keys
				g := NewGenerator(spec, seed)
				h := sha256.New()
				var buf [4 * 8]byte
				for i := 0; i < 20000; i++ {
					op := g.Next()
					binary.LittleEndian.PutUint64(buf[0:], uint64(op.Kind))
					binary.LittleEndian.PutUint64(buf[8:], uint64(op.Key))
					binary.LittleEndian.PutUint64(buf[16:], uint64(op.Value))
					binary.LittleEndian.PutUint64(buf[24:], uint64(op.ScanLen))
					h.Write(buf[:])
				}
				binary.LittleEndian.PutUint64(buf[0:], uint64(g.rng.Int63()))
				h.Write(buf[:8])
				fmt.Fprintf(&b, "%s/seed=%d/keys=%d %x\n", name, seed, keys, h.Sum(nil))
			}
		}
	}
	const path = "testdata/stream.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(b.String(), "\n"), strings.Split(string(doc), "\n")
	if len(got) != len(want) {
		t.Fatalf("%s holds %d lines, this run %d: the case set changed (rerun with -update if intended)", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: got %q, golden %q: a stream changed (rerun with -update if intended)", path, got[i], want[i])
		}
	}
}
