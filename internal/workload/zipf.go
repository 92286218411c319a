package workload

// The zipfian key sampler. It returns exactly what math/rand's
// (*Zipf).Uint64 returns for s = zipfQ and v = zipfV, and draws exactly
// the same rng.Float64 values, so an operation stream is the one
// rand.NewZipf would give — but most draws cost a table lookup instead of
// an Exp and a Log.
//
// The stdlib draws by rejection-inversion (Hörmann and Derflinger,
// "Rejection-Inversion to Generate Variates from Monotone Discrete
// Distributions"). Each attempt draws r = rng.Float64(), maps it to
// ur = hxm + r*hx0minusHxm, inverts x = hinv(ur), rounds k = ⌊x+½⌋ and
// accepts k if k-x <= s or ur >= h(k+½) - (k+v)^-q; otherwise it draws
// again. h and hinv are increasing and h(k-½) ≤ ur < h(k+½) is key k's
// stretch, so within a stretch the outcome of an attempt is a function
// of ur alone that changes at most once: rejected below
// min(h(k-s), h(k+½) - (k+v)^-q), accepted above. None of these points
// depends on imax — only hxm and hx0minusHxm do — so one table over the
// zipfKeys most likely keys serves every key count.
//
// The table (buildZipfTable) cuts ur's line at those points, exactly
// computed, into runs labelled with an attempt's outcome: key k, or a
// rejection. Around every point it leaves a band of relative width
// zipfMargin = 1e-10 labelled "decline", and it declines below key 0's
// stretch and above the last tabled key's. Rounding moves the stdlib's
// x by a few ulps, some 1e-15 relative, and ur by 1e-10 relative moves
// x+v by 1e-9 relative (x+v ∝ |ur|^-10): so an ur outside every band has
// the outcome its run's label says, by a factor of about 10⁵. A declined
// attempt runs the stdlib's own formula on the same ur (zipfAttempt). Every
// attempt, fast or not, draws one Float64, as the stdlib's does.
//
// The table depends only on s and v, which are fixed, so it is filled
// once per process (zipfOnce) into package-level arrays: static storage,
// not heap. A generator's reskew then only recomputes hxm and
// hx0minusHxm (newZipf), one Exp and one Log.
//
// TestZipfMatchesStdlib, TestZipfBoundaryProbe and FuzzZipf hold the
// sampler to rand.NewZipf; TestGeneratorStreamGolden pins the streams.

import (
	"math"
	"math/rand"
	"sync"
)

const (
	// zipfKeys is the number of keys the table covers, from key 0.
	zipfKeys = 1024
	// zipfMargin is the relative half-width of the band declined around
	// each of the table's cut points.
	zipfMargin = 1e-10
	// zipfGuideN is the number of equal-width ur buckets of the guide.
	zipfGuideN = 2048
	// zipfMaxRuns bounds the table's runs: the leading decline, then at
	// most two outcome runs per key, each followed by a decline.
	zipfMaxRuns = 1 + 4*zipfKeys

	// Run labels besides a key.
	zipfReject  = -1 // the attempt is rejected: draw again
	zipfDecline = -2 // the table cannot tell: run the stdlib's formula
)

// zipfQ and zipfV are rand.NewZipf's s and v. s = 1.1, v = 1 approximates
// YCSB's 0.99 zipfian constant within rand.Zipf's s > 1 requirement.
// They are variables, not constants, so that every derived value below
// is computed in float64 arithmetic, as the stdlib computes it.
var zipfQ, zipfV = 1.1, 1.0

var (
	zipfOnce sync.Once
	// The stdlib's derived constants: oneminusQ, oneminusQinv, s, and
	// h(0.5) - v^-q, the imax-free part of hx0minusHxm.
	zipfOneMinusQ, zipfOneMinusQInv, zipfS, zipfH0 float64

	// The table: run j covers ur in [zipfCut[j], zipfCut[j+1]) and its
	// outcome is zipfOut[j] (a key, zipfReject or zipfDecline). Run 0
	// starts at -Inf and declines; zipfCut[zipfN] is +Inf.
	zipfCut [zipfMaxRuns + 1]float64
	zipfOut [zipfMaxRuns]int16
	zipfN   int
	// zipfGuide[b] is a run at or before the one holding any ur in
	// bucket b = zipfBucket(ur); buckets split [zipfLo, zipfHi) evenly.
	zipfGuide                [zipfGuideN]uint16
	zipfLo, zipfBucketsPerUr float64
)

// zipfH and zipfHinv are the stdlib's h and hinv.
func zipfH(x float64) float64 {
	return math.Exp(zipfOneMinusQ*math.Log(zipfV+x)) * zipfOneMinusQInv
}

func zipfHinv(x float64) float64 {
	return math.Exp(zipfOneMinusQInv*math.Log(zipfOneMinusQ*x)) - zipfV
}

// zipf draws rand.Zipf's variates over [0, imax].
type zipf struct {
	hxm, hx0minusHxm float64
}

// newZipf is rand.NewZipf(rng, zipfQ, zipfV, imax) without the rng: the
// constants are computed with the stdlib's own expressions.
func newZipf(imax uint64) zipf {
	zipfOnce.Do(buildZipfTable)
	hxm := zipfH(float64(imax) + 0.5)
	return zipf{hxm: hxm, hx0minusHxm: zipfH0 - hxm}
}

// next is rand.Zipf's Uint64 drawing from rng.
func (z *zipf) next(rng *rand.Rand) uint64 {
	for {
		ur := z.hxm + rng.Float64()*z.hx0minusHxm
		switch k := zipfLookup(ur); {
		case k >= 0:
			return uint64(k)
		case k == zipfReject:
			continue
		}
		if k, ok := zipfAttempt(ur); ok {
			return k
		}
	}
}

// zipfLookup returns the table's outcome for an attempt at ur.
func zipfLookup(ur float64) int {
	b := zipfBucket(ur)
	if b >= zipfGuideN {
		return zipfDecline
	}
	j := int(zipfGuide[b])
	for ur >= zipfCut[j+1] {
		j++
	}
	return int(zipfOut[j])
}

// zipfBucket is ur's guide bucket. It is non-decreasing in ur (a
// rounded subtraction and product, then a truncation), which is what
// makes the guide safe; an ur below zipfLo lands in bucket 0 or past the
// guide, and above zipfHi past the guide or in a bucket whose scan ends
// in the last, declining run.
func zipfBucket(ur float64) uint {
	return uint(int((ur - zipfLo) * zipfBucketsPerUr))
}

// zipfAttempt is one iteration of the stdlib's loop at ur, copied from Go's
// math/rand/zipf.go (Copyright 2009 The Go Authors; BSD-style license,
// see https://go.dev/LICENSE): it reports the key and whether the
// attempt accepts it.
func zipfAttempt(ur float64) (uint64, bool) {
	x := zipfHinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= zipfS {
		return uint64(k), true
	}
	if ur >= zipfH(k+0.5)-math.Exp(-math.Log(k+zipfV)*zipfQ) {
		return uint64(k), true
	}
	return 0, false
}

// buildZipfTable computes the stdlib's constants and fills the table.
func buildZipfTable() {
	zipfOneMinusQ = 1.0 - zipfQ
	zipfOneMinusQInv = 1.0 / zipfOneMinusQ
	zipfH0 = zipfH(0.5) - math.Exp(math.Log(zipfV)*(-zipfQ))
	zipfS = 1 - zipfHinv(zipfH(1.5)-math.Exp(-zipfQ*math.Log(zipfV+1.0)))

	n := 0
	emit := func(cut float64, out int16) {
		zipfCut[n], zipfOut[n] = cut, out
		n++
	}
	// span labels the open stretch (p, q) of ur, less both points' bands.
	span := func(p, q float64, out int16) {
		lo, hi := p+zipfMargin*math.Abs(p), q-zipfMargin*math.Abs(q)
		if lo < hi {
			emit(lo, out)
			emit(hi, zipfDecline)
		}
	}
	emit(math.Inf(-1), zipfDecline)
	for k := 0; k < zipfKeys; k++ {
		kf := float64(k)
		lo, hi := zipfH(kf-0.5), zipfH(kf+0.5)
		// The attempt accepts k from the lower of its two tests'
		// switch points: ur >= h(k+½) - (k+v)^-q at that threshold,
		// k-x <= s at ur = h(k-s) (and always if k-s is below every
		// x > -v).
		accept := math.Inf(-1)
		if kf-zipfS+zipfV > 0 {
			accept = math.Min(hi-math.Exp(-math.Log(kf+zipfV)*zipfQ), zipfH(kf-zipfS))
		}
		switch {
		case accept <= lo:
			span(lo, hi, int16(k))
		case accept >= hi:
			span(lo, hi, zipfReject)
		default:
			span(lo, accept, zipfReject)
			span(accept, hi, int16(k))
		}
	}
	zipfN = n
	zipfCut[n] = math.Inf(1)

	zipfLo = zipfCut[1]
	zipfBucketsPerUr = zipfGuideN / (zipfCut[n-1] - zipfLo)
	// guide[b] is the last run j > 0 whose start lies in a bucket below
	// b, else run 0. Any ur in bucket b lies at or after that run's
	// start, since zipfBucket is non-decreasing.
	j := 0
	for b := range zipfGuide {
		for j+1 < n && zipfBucket(zipfCut[j+1]) < uint(b) {
			j++
		}
		zipfGuide[b] = uint16(j)
	}
}
