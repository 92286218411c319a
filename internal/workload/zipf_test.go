package workload

import (
	"math"
	"math/rand"
	"testing"
)

// drawBoth draws n variates from rand.NewZipf and from zipf, each over
// its own rng seeded with seed, and fails at the first that differs or
// if the next rng.Int63 differs afterwards (a draw more or less).
func drawBoth(t testing.TB, seed int64, imax uint64, n int) {
	rngStd, rngOurs := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	std := rand.NewZipf(rngStd, zipfQ, zipfV, imax)
	ours := newZipf(imax)
	for i := 0; i < n; i++ {
		if want, got := std.Uint64(), ours.next(rngOurs); got != want {
			t.Fatalf("seed %d imax %d draw %d: got %d, rand.Zipf %d", seed, imax, i, got, want)
		}
	}
	if want, got := rngStd.Int63(), rngOurs.Int63(); got != want {
		t.Fatalf("seed %d imax %d after %d draws: next Int63 %d, rand.Zipf's rng %d", seed, imax, n, got, want)
	}
}

// TestZipfMatchesStdlib holds the sampler to rand.NewZipf draw for draw:
// key counts on both sides of the table's edge (1024 keys) and far past
// it, a million draws each.
func TestZipfMatchesStdlib(t *testing.T) {
	for i, imax := range []uint64{0, 1, 2, 1022, 1023, 1024, 1025, 1999, 3999, 9999, 99999} {
		drawBoth(t, int64(7+i), imax, 1_000_000)
	}
}

// FuzzZipf is TestZipfMatchesStdlib over any seed, key count and number
// of draws.
func FuzzZipf(f *testing.F) {
	f.Add(int64(1), uint64(0), uint16(100))
	f.Add(int64(2), uint64(1023), uint16(5000))
	f.Add(int64(3), uint64(9999), uint16(5000))
	f.Add(int64(-4), uint64(math.MaxUint64), uint16(1000))
	f.Fuzz(func(t *testing.T, seed int64, imax uint64, n uint16) {
		drawBoth(t, seed, imax, int(n))
	})
}

// scriptSource is a rand.Source that returns its script, then repeats
// its last value; calls counts the values taken.
type scriptSource struct {
	script []int64
	calls  int
}

func (s *scriptSource) Int63() int64 {
	v := s.script[min(s.calls, len(s.script)-1)]
	s.calls++
	return v
}

func (s *scriptSource) Seed(int64) {}

// TestZipfBoundaryProbe looks for the stdlib's own switch points: at
// every point where the table changes its outcome (a key's stretch
// starts, or its acceptance starts), it bisects r, through the real
// rand.Zipf, down to the adjacent pair of float64 values where the
// attempt's outcome changes, then checks that at every r within 1000
// ulps of it the table either declines or agrees with rand.Zipf.
func TestZipfBoundaryProbe(t *testing.T) {
	const imax = 9999
	src := &scriptSource{}
	std := rand.NewZipf(rand.New(src), zipfQ, zipfV, imax)
	z := newZipf(imax)
	// outcome is one stdlib attempt at r: the key, or zipfReject. A
	// rejected attempt draws again; the script's second value, r = 1 - 2^-20,
	// is an accepted key 0.
	outcome := func(r float64) int {
		src.script, src.calls = append(src.script[:0], int64(r*(1<<63)), 1<<63-1<<43), 0
		k := std.Uint64()
		if src.calls > 1 {
			return zipfReject
		}
		return int(k)
	}
	// r runs against ur (hx0minusHxm < 0); the table's runs are in ur.
	rOf := func(ur float64) float64 { return (ur - z.hxm) / z.hx0minusHxm }
	declined, probed := 0, 0
	for j := 1; j < zipfN-1; j++ {
		if zipfOut[j] != zipfDecline {
			continue
		}
		// The band [zipfCut[j], zipfCut[j+1]) sits around one switch
		// point; rA and rB lie in the runs on either side of it.
		rA, rB := rOf(zipfCut[j+1]), rOf(zipfCut[j])
		if rB >= 1 || rA < 1.0/(1<<11) {
			continue // beyond r's range, or below the values r*2^63 represents exactly
		}
		lo, hi := outcome(rA), outcome(rB)
		if lo != int(zipfOut[j+1]) || hi != int(zipfOut[j-1]) {
			t.Fatalf("band %d: rand.Zipf gives %d and %d either side, the table %d and %d", j, lo, hi, zipfOut[j+1], zipfOut[j-1])
		}
		a, b := math.Float64bits(rA), math.Float64bits(rB)
		for b-a > 1 {
			m := a + (b-a)/2
			if outcome(math.Float64frombits(m)) == lo {
				a = m
			} else {
				b = m
			}
		}
		for d := -1000; d <= 1000; d++ {
			r := math.Float64frombits(uint64(int64(b) + int64(d)))
			fast := zipfLookup(z.hxm + r*z.hx0minusHxm)
			if fast == zipfDecline {
				declined++
			} else if want := outcome(r); fast != want {
				t.Fatalf("band %d: r %v (%+d ulps from rand.Zipf's switch): table %d, rand.Zipf %d", j, r, d, fast, want)
			}
		}
		probed++
	}
	if probed < zipfKeys {
		t.Fatalf("probed %d switch points, want at least one per tabled key (%d)", probed, zipfKeys)
	}
	t.Logf("%d switch points probed; the table declined %d of %d r values within 1000 ulps", probed, declined, 2001*probed)
}

// BenchmarkZipf is one draw over 10000 keys (the stdlib's: rand.Zipf).
func BenchmarkZipf(b *testing.B) {
	const imax = 9999
	b.Run("table", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		z := newZipf(imax)
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += z.next(rng)
		}
		_ = sink
	})
	b.Run("stdlib", func(b *testing.B) {
		z := rand.NewZipf(rand.New(rand.NewSource(1)), zipfQ, zipfV, imax)
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += z.Uint64()
		}
		_ = sink
	})
}

// BenchmarkGeneratorNext is one generated operation of YCSB A (zipfian)
// and D (latest, with inserts and so reskews) over 10000 keys.
func BenchmarkGeneratorNext(b *testing.B) {
	for _, name := range []string{"A", "D"} {
		b.Run(name, func(b *testing.B) {
			spec, _ := YCSB(name)
			spec.Keys = 10000
			g := NewGenerator(spec, 1)
			var sink int64
			for i := 0; i < b.N; i++ {
				sink += g.Next().Key
			}
			_ = sink
		})
	}
}
