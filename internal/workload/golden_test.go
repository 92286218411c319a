package workload

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"cxl0/internal/golden"
)

// TestGeneratorStreamGolden pins the operation stream across builds: one
// SHA-256 digest per YCSB workload, seed and key count over every
// generated op's fields, followed by the generator's next rng.Int63 (so a
// sampler that draws one number more or less changes the digest even if
// the ops agree). 20000 ops give D and E about 1000 inserts each, every
// one a reskew; at 100 keys that walks the zipfian's key range from 99
// past 1023. Only a change that means to alter a generated operation
// stream reruns it with -update.
func TestGeneratorStreamGolden(t *testing.T) {
	var cases []golden.Case
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		for _, seed := range []int64{1, 42} {
			for _, keys := range []int{100, 2000, 10000} {
				spec, err := YCSB(name)
				if err != nil {
					t.Fatal(err)
				}
				spec.Keys = keys
				g := NewGenerator(spec, seed)
				// 640 KB per case, built in place: the 30 cases hold
				// about 19 MB until they are digested.
				var text strings.Builder
				text.Grow((20000*4 + 1) * 8)
				var buf [8]byte
				for i := 0; i < 20000; i++ {
					op := g.Next()
					for _, f := range []int64{int64(op.Kind), op.Key, op.Value, int64(op.ScanLen)} {
						text.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(f)))
					}
				}
				text.Write(binary.LittleEndian.AppendUint64(buf[:0], uint64(g.rng.Int63())))
				cases = append(cases, golden.Case{Name: fmt.Sprintf("%s/seed=%d/keys=%d", name, seed, keys), Text: text.String()})
			}
		}
	}
	golden.Check(t, "testdata/stream.golden", golden.Digests(cases))
}
