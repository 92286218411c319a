package core

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// fuzzTopo is three machines with interleaved owners, one of them
// volatile, over enough locations that every machine's index spans more
// than one block of words and ends in a partial word.
func fuzzTopo() *Topology {
	topo := NewTopology()
	a := topo.AddMachine("a", NonVolatile)
	b := topo.AddMachine("b", Volatile)
	c := topo.AddMachine("c", NonVolatile)
	topo.AddLocs(a, 70)
	topo.AddLoc("x", b)
	topo.AddLocs(b, 64*blockWords)
	topo.AddLocs(c, 61)
	topo.AddLocs(a, 3)
	return topo
}

// FuzzTauIndex reads its input's first byte as the topology — fuzzTopo
// when even, wideTopo, whose owner runs share occupancy words, when odd —
// and the rest as a sequence of four-byte operations — kind, machine, two
// bytes of location — applied in place to one state (and now and then to
// a clone that replaces it) and replayed into a dense mirror, and holds
// the state to the mirror after every one, and its key and equality to
// the mirror's at the end. Besides the labeled and per-line τ steps, it
// drives the word steps memsim takes, each of them enabled (wordEnabled):
// DrainRange, held to the per-line drain it replaced (checkDrainRange);
// DrainTau, held to the TauStepAt(0) loop it replaced, on a clone; one
// ApplyTauWordInPlace whose mask the next eight bytes cut; and one
// ApplyStoreWordInPlace of LStores, RStores or MStores to the lines of a
// word and owner's stretch (the split OwnerThrough hands a record's
// stores), cut the same way. The mirror takes a word step's lines one at a
// time in ascending order. An AddLocs op grows the topology — a
// run that starts inside a word makes two runs share it — and carries the
// state and the mirror over to it. The seed corpus is tauIndexSeeds'
// generated programs and testdata/fuzz/FuzzTauIndex.
func FuzzTauIndex(f *testing.F) {
	topos := []func() *Topology{fuzzTopo, wideTopo}
	for _, prog := range tauIndexSeeds(topos) {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		topo := topos[data[0]&1]() // its own: AddLocs ops grow it
		data = data[1:]
		s, d := NewState(topo), newDense(topo)
		apply := func(l Label, v Variant) {
			if got, want := ApplyInPlace(s, l, v), d.apply(l, v); got != want {
				t.Fatalf("%v enabled: %v, in the mirror: %v", l, got, want)
			}
		}
		take := func(tw TauWord) {
			if err := wordEnabled(s, tw); err != nil {
				t.Fatal(err)
			}
			ApplyTauWordInPlace(s, tw)
			for _, ts := range perLine(tw) {
				d.tau(ts)
			}
		}
		for len(data) >= 4 {
			op := data[:4]
			data = data[4:]
			m := MachineID(int(op[1]) % topo.NumMachines())
			x := LocID((int(op[2])<<8 | int(op[3])) % topo.NumLocs())
			v := Val(op[1] % 3)
			switch k := op[0] % 19; k {
			case 0:
				apply(LStoreL(m, x, v), Base)
			case 1:
				apply(RStoreL(m, x, v), Base)
			case 2:
				apply(MStoreL(m, x, v), Base)
			case 3:
				apply(LoadL(m, x, s.Readable(x)), Base)
			case 4:
				apply(RFlushL(m, x), LWB)
			case 5:
				apply(RMWL(OpRRMW, m, x, s.Readable(x), v), Base)
			case 6:
				if n := s.TauStepCount(); n > 0 {
					ts := s.TauStepAt(int(x) % n)
					cloned := ApplyTau(s, ts)
					ApplyTauInPlace(s, ts)
					d.tau(ts)
					if err := agrees(cloned, d); err != nil {
						t.Fatalf("ApplyTau(%v): %v", ts, err)
					}
				}
			case 7:
				apply(CrashL(m), Base)
			case 8:
				cloned := Crash(s, m, PSN)
				apply(CrashL(m), PSN)
				if err := agrees(cloned, d); err != nil {
					t.Fatalf("Crash(%d, PSN): %v", m, err)
				}
			case 9:
				s = s.Clone()
			case 10:
				if cv, held := s.CachedValue(x); held {
					v = cv // keep the global invariant
				}
				s.SetCache(m, x, v)
				d.cache[m][x] = v
			case 11:
				s.SetCache(m, x, Bot)
				d.cache[m][x] = Bot
			case 12:
				// The square of op[1] reaches every length up to the
				// whole of fuzzTopo.
				hi := min(x+LocID(int(op[1])*int(op[1])), LocID(topo.NumLocs()))
				if err := checkDrainRange(s, x, hi); err != nil {
					t.Fatal(err)
				}
				s.DrainRange(x, hi, take)
			case 13:
				loop := s.Clone()
				for loop.TauStepCount() > 0 {
					ApplyTauInPlace(loop, loop.TauStepAt(0))
				}
				s.DrainTau(take)
				if !s.Equal(loop) || !s.CachesEmpty() {
					t.Fatalf("DrainTau ends in %v, the TauStepAt(0) loop in %v", s, loop)
				}
			case 14:
				// m's lines of x's word and owner run, cut by the next
				// eight bytes when there are.
				w, _ := LineWord(x)
				_, past := topo.runOf(x)
				mask := s.rows[m].held.words[w] & rangeBits(w, topo.runs[topo.runAt(x)].first, past)
				if len(data) >= 8 {
					mask &= binary.LittleEndian.Uint64(data)
					data = data[8:]
				}
				if mask != 0 {
					take(TauWord{From: m, Word: w, Mask: mask, ToMemory: topo.Owner(x) == m})
				}
			case 15, 16, 17:
				// m's stores of one kind to x and lines of x's word and
				// owner's stretch, cut by the next eight bytes when there
				// are.
				w, bit := LineWord(x)
				_, past := topo.OwnerThrough(x)
				mask := rangeBits(w, topo.runs[topo.runAt(x)].first, past)
				if len(data) >= 8 {
					mask &= binary.LittleEndian.Uint64(data) | bit
					data = data[8:]
				}
				vals := make([]Val, bits.OnesCount64(mask))
				for i := range vals {
					vals[i] = Val((int(op[1]) + i) % 5)
				}
				store := []Op{OpLStore, OpRStore, OpMStore}[k-15]
				ApplyStoreWordInPlace(s, store, m, w, mask, vals)
				for _, l := range storeWordLines(store, m, w, mask, vals) {
					d.apply(l, Base)
				}
			case 18:
				// op[2]%100 more locations of m's; the state and the
				// mirror carry over with the new lines uncached and zero.
				if n := int(op[2]) % 100; topo.NumLocs()+n <= maxFuzzLocs {
					topo.AddLocs(m, n)
					s, d = grownState(s, d)
				}
			}
			if err := agrees(s, d); err != nil {
				t.Fatalf("op %v: %v", op, err)
			}
		}
		if err := sameState(s, d); err != nil {
			t.Fatal(err)
		}
	})
}

// tauIndexSeeds returns FuzzTauIndex's generated seeds: on each of topos
// in turn, twenty-five states of up to 400 lines that SetCache plants in
// random caches (keeping the invariant), each taking twenty word steps — a
// ranged drain, half of them 49 lines long, a τ word step from a planted
// line's word, or a record's stores of one kind — and then DrainTau.
func tauIndexSeeds(topos []func() *Topology) (seeds [][]byte) {
	for i, build := range topos {
		locs := build().NumLocs()
		for seed := range int64(25) {
			rng := rand.New(rand.NewSource(seed))
			prog := []byte{byte(i)}
			op := func(k int, arg byte, x LocID) []byte {
				prog = append(prog, byte(k), arg, byte(x>>8), byte(x))
				return prog
			}
			plants := rng.Intn(400)
			for range plants {
				op(10, byte(rng.Intn(256)), LocID(rng.Intn(locs)))
			}
			for range 20 {
				switch k := rng.Intn(4); {
				case k == 0:
					op(12, []byte{7, byte(rng.Intn(256))}[rng.Intn(2)], LocID(rng.Intn(locs)))
					continue
				case k == 1 && plants > 0:
					plant := prog[1+4*rng.Intn(plants):]
					op(14, plant[1], LocID(plant[2])<<8|LocID(plant[3]))
				default:
					op(15+rng.Intn(3), byte(rng.Intn(256)), LocID(rng.Intn(locs)))
				}
				prog = binary.LittleEndian.AppendUint64(prog, rng.Uint64()) // the step's mask
			}
			seeds = append(seeds, op(13, 0, 0))
		}
	}
	return seeds
}

// maxFuzzLocs bounds how far FuzzTauIndex's AddLocs ops grow a topology.
const maxFuzzLocs = 6000

// grownState returns a state and a mirror over s's topology, which has
// grown since s was made, holding what s and d hold, every new line
// uncached and zero.
func grownState(s *State, d *dense) (*State, *dense) {
	grown, mirror := NewState(s.topo), newDense(s.topo)
	for l := range LocID(s.locs) {
		grown.SetMem(l, s.Mem(l))
		mirror.mem[l] = d.mem[l]
		for m := range MachineID(len(s.rows)) {
			if v := s.Cache(m, l); v != Bot {
				grown.SetCache(m, l, v)
			}
			mirror.cache[m][l] = d.cache[m][l]
		}
	}
	return grown, mirror
}

// TestTopologyRuns registers locations one at a time and in ranges,
// interleaved over three machines, beside a table with one entry per
// location, and holds Owner, LocName, LocByName and OwnerRuns to the table.
// Neighbouring registrations to one machine must share a run.
func TestTopologyRuns(t *testing.T) {
	topo := NewTopology()
	ms := []MachineID{topo.AddMachine("a", NonVolatile), topo.AddMachine("b", Volatile), topo.AddMachine("c", NonVolatile)}
	var owner []MachineID
	var name []string
	rng := rand.New(rand.NewSource(21))
	for reg, changes := 0, 0; reg < 60; reg++ {
		m, first := ms[rng.Intn(len(ms))], LocID(len(owner))
		n := rng.Intn(200) // now and then none at all
		if named := rng.Intn(3) == 0; named {
			n = 1
			name = append(name, fmt.Sprintf("n%d", reg))
			if got := topo.AddLoc(name[first], m); got != first {
				t.Fatalf("AddLoc returned %d, want %d", got, first)
			}
		} else {
			for l := int(first); l < int(first)+n; l++ {
				name = append(name, fmt.Sprintf("%s[%d]", topo.MachineName(m), l))
			}
			if got := topo.AddLocs(m, n); got != first {
				t.Fatalf("AddLocs returned %d, want %d", got, first)
			}
		}
		if n > 0 && (first == 0 || owner[first-1] != m) {
			changes++
		}
		owner = append(owner, slices.Repeat([]MachineID{m}, n)...)
		if len(topo.runs) != changes {
			t.Fatalf("after %d registrations: %d runs for %d changes of owner", reg+1, len(topo.runs), changes)
		}
	}
	if topo.NumLocs() != len(owner) {
		t.Fatalf("NumLocs = %d, %d registered", topo.NumLocs(), len(owner))
	}
	for l, want := range owner {
		if got := topo.Owner(LocID(l)); got != want {
			t.Fatalf("Owner(%d) = %d, want %d", l, got, want)
		}
		if got := topo.LocName(LocID(l)); got != name[l] {
			t.Fatalf("LocName(%d) = %q, want %q", l, got, name[l])
		}
		if got, ok := topo.LocByName(name[l]); !ok || got != LocID(l) {
			t.Fatalf("LocByName(%q) = %d, %v, want %d", name[l], got, ok, l)
		}
	}
	for trial := 0; trial < 200; trial++ {
		from := LocID(rng.Intn(len(owner) + 1))
		to := from + LocID(rng.Intn(len(owner)+1-int(from)))
		at := from
		topo.OwnerRuns(from, to, func(m MachineID, lo, hi LocID) {
			if lo != at || hi <= lo || hi > to {
				t.Fatalf("OwnerRuns(%d, %d): run [%d,%d) after %d", from, to, lo, hi, at)
			}
			for l := lo; l < hi; l++ {
				if owner[l] != m {
					t.Fatalf("OwnerRuns(%d, %d): run [%d,%d) of %d holds %d, owned by %d", from, to, lo, hi, m, l, owner[l])
				}
			}
			if hi < to && owner[hi] == m {
				t.Fatalf("OwnerRuns(%d, %d): run [%d,%d) of %d stops short of %d", from, to, lo, hi, m, hi)
			}
			at = hi
		})
		if at != to {
			t.Fatalf("OwnerRuns(%d, %d) stopped at %d", from, to, at)
		}
	}
}

// TestLineSetMatchesMapModel drives a LineSet and a map through the same
// random insertions, removals, range removals and clears, and holds
// membership, the count and the ascending order to the map.
func TestLineSetMatchesMapModel(t *testing.T) {
	const locs = 64*blockWords + 700 // two blocks, the second partial, the last word too
	set, model := NewLineSet(locs), map[LocID]bool{}
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 4000; round++ {
		l := LocID(rng.Intn(locs))
		switch k := rng.Intn(40); {
		case k < 24:
			set.Add(l)
			model[l] = true
		case k < 36:
			set.Remove(l)
			delete(model, l)
		case k < 39:
			hi := l + LocID(rng.Intn(300))%(locs-l+1)
			set.RemoveRange(l, hi)
			for x := l; x < hi; x++ {
				delete(model, x)
			}
		default:
			set.Clear()
			clear(model)
		}
		if set.Has(l) != model[l] || set.total != len(model) {
			t.Fatalf("round %d: Has(%d) = %v, %d lines; the model has %v, %d", round, l, set.Has(l), set.total, model[l], len(model))
		}
		if round%50 != 0 {
			continue
		}
		want := slices.Sorted(maps.Keys(model))
		var got []LocID
		set.eachWord(func(w int, word uint64) {
			for ; word != 0; word &= word - 1 {
				got = append(got, LocID(w<<6|bits.TrailingZeros64(word)))
			}
		})
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: each yields %v, the model holds %v", round, got, want)
		}
		for k, l := range want {
			if n := set.nth(uint64(k)); n != l {
				t.Fatalf("round %d: nth(%d) = %d, want %d", round, k, n, l)
			}
		}
	}
}

// perLineDrain empties every cache of the lines of [lo, hi) as the ranged
// flush's drain was first written: line by line, asking every machine in
// turn for the lowest-numbered holder, and stepping it towards memory
// until no cache holds the line.
func perLineDrain(s *State, lo, hi LocID) {
	for l := lo; l < hi; l++ {
		for {
			holder := MachineID(-1)
			for m := range MachineID(s.topo.NumMachines()) {
				if s.Cache(m, l) != Bot {
					holder = m
					break
				}
			}
			if holder < 0 {
				break
			}
			ApplyTauInPlace(s, TauStep{From: holder, Loc: l, ToMemory: s.topo.Owner(l) == holder})
		}
	}
}

// perLine returns the single-line steps of the word step tw, in ascending
// order of their lines.
func perLine(tw TauWord) []TauStep {
	var steps []TauStep
	for word := tw.Mask; word != 0; word &= word - 1 {
		steps = append(steps, TauStep{From: tw.From, Loc: LocID(tw.Word<<6 | bits.TrailingZeros64(word)), ToMemory: tw.ToMemory})
	}
	return steps
}

// wordEnabled reports, as an error naming tw, why the word step tw is not
// one a drain may hand over in s: no lines, a line tw.From does not cache,
// lines of two owners, or a destination that is not the owner's.
func wordEnabled(s *State, tw TauWord) error {
	if tw.Mask == 0 {
		return fmt.Errorf("%v names no line", tw)
	}
	owner := s.topo.Owner(tw.First())
	for _, ts := range perLine(tw) {
		switch {
		case s.Cache(ts.From, ts.Loc) == Bot:
			return fmt.Errorf("%v names %d, which C%d does not hold", tw, ts.Loc, ts.From)
		case s.topo.Owner(ts.Loc) != owner:
			return fmt.Errorf("%v names lines of %d and of %d", tw, owner, s.topo.Owner(ts.Loc))
		}
	}
	if tw.ToMemory != (owner == tw.From) {
		return fmt.Errorf("%v: its lines are %d's", tw, owner)
	}
	return nil
}

// checkDrainRange holds s.DrainRange(lo, hi) to perLineDrain on clones of
// s: it may hand take only enabled word steps of lines in the range, must
// end Equal to the per-line drain with nothing of the range cached and the
// holder mask in step, and must leave every line outside the range as it
// was in s.
func checkDrainRange(s *State, lo, hi LocID) error {
	ref, drained := s.Clone(), s.Clone()
	perLineDrain(ref, lo, hi)
	var bad error
	drained.DrainRange(lo, hi, func(tw TauWord) {
		if bad != nil {
			return
		}
		if tw.Mask&^rangeBits(tw.Word, lo, hi) != 0 {
			bad = fmt.Errorf("DrainRange(%d, %d) handed %v, a step outside the range", lo, hi, tw)
		} else if err := wordEnabled(drained, tw); err != nil {
			bad = fmt.Errorf("DrainRange(%d, %d): %v", lo, hi, err)
		} else {
			ApplyTauWordInPlace(drained, tw)
		}
	})
	if bad != nil {
		return bad
	}
	if !drained.Equal(ref) {
		return fmt.Errorf("from %v\nDrainRange(%d, %d) ends in %v\nthe per-line drain in %v", s, lo, hi, drained, ref)
	}
	if !drained.NoCacheHoldsRange(lo, int(hi-lo)) {
		return fmt.Errorf("DrainRange(%d, %d) left a line of the range cached: %v", lo, hi, drained)
	}
	for l := range LocID(s.topo.NumLocs()) {
		if l >= lo && l < hi {
			continue
		}
		if drained.Mem(l) != s.Mem(l) {
			return fmt.Errorf("DrainRange(%d, %d) moved M(%d) from %d to %d", lo, hi, l, s.Mem(l), drained.Mem(l))
		}
		for m := range MachineID(s.topo.NumMachines()) {
			if drained.Cache(m, l) != s.Cache(m, l) {
				return fmt.Errorf("DrainRange(%d, %d) moved C%d(%d) from %d to %d", lo, hi, m, l, s.Cache(m, l), drained.Cache(m, l))
			}
		}
	}
	for m, r := range drained.rows {
		for w, off := range r.page {
			if drained.holders.Has(MachineID(m), LocID(w*pageCells)) != (off != 0) {
				return fmt.Errorf("after DrainRange(%d, %d) the holder mask disagrees with C%d's page for %d…", lo, hi, m, w*pageCells)
			}
		}
	}
	return nil
}

// wideTopo is 70 machines, more than one mask word holds, each owning runs
// of three lines round robin over four occupancy words, so that the lines
// of a word have many owners and machines 0, 63, 64 and 69 own some.
func wideTopo() *Topology {
	topo := NewTopology()
	for m := 0; m < 70; m++ {
		topo.AddMachine(fmt.Sprintf("m%d", m), NonVolatile)
	}
	for l := 0; l < 240; l += 3 {
		topo.AddLocs(MachineID(l/3%70), 3)
	}
	return topo
}

// TestHolderMaskBeyond64Machines: with 70 machines each occupancy word's
// mask is two uint64s. Lines held by machines 0, 63, 64 and 69 — either
// side of the boundary and at both ends — are answered by Holder,
// CachedValue, NoCacheHolds, invalidate and DrainRange as the enumerating
// reference answers them.
func TestHolderMaskBeyond64Machines(t *testing.T) {
	topo := wideTopo()
	if stride, _ := machineMaskLayout(topo.NumMachines(), topo.NumLocs()); stride != 2 {
		t.Fatalf("a mask word of %d machines is %d uint64s, want 2", topo.NumMachines(), stride)
	}
	edges := []MachineID{0, 63, 64, 69}
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, d := NewState(topo), newDense(topo)
		for n := rng.Intn(200); n > 0; n-- {
			m, x, v := edges[rng.Intn(len(edges))], LocID(rng.Intn(topo.NumLocs())), Val(1+rng.Intn(3))
			if cv, held := s.CachedValue(x); held {
				v = cv // keep the global invariant
			}
			s.SetCache(m, x, v)
			d.cache[m][x] = v
		}
		if err := agrees(s, d); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for l := range LocID(topo.NumLocs()) {
			want, wantVal := MachineID(-1), Bot
			for m := range d.cache {
				if d.cache[m][l] != Bot {
					want, wantVal = MachineID(m), d.cache[m][l]
					break
				}
			}
			if got, held := s.Holder(l); held != (want >= 0) || held && got != want {
				t.Fatalf("seed %d: Holder(%d) = %d, %v; the lowest holder is %d", seed, l, got, held, want)
			}
			if v, held := s.CachedValue(l); held != (want >= 0) || v != wantVal {
				t.Fatalf("seed %d: CachedValue(%d) = %d, %v; the reference holds %d", seed, l, v, held, wantVal)
			}
			if s.NoCacheHolds(l) != (want < 0) {
				t.Fatalf("seed %d: NoCacheHolds(%d) = %v with holder %d", seed, l, s.NoCacheHolds(l), want)
			}
		}
		x := LocID(rng.Intn(topo.NumLocs()))
		inv, dinv := s.Clone(), d.clone()
		inv.invalidate(x)
		dinv.invalidate(x)
		if err := agrees(inv, dinv); err != nil {
			t.Fatalf("seed %d: invalidate(%d): %v", seed, x, err)
		}
		lo := LocID(rng.Intn(topo.NumLocs()))
		hi := lo + LocID(rng.Intn(topo.NumLocs()+1-int(lo)))
		if err := checkDrainRange(s, lo, hi); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkDrainRange(s, 0, LocID(topo.NumLocs())); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestTauWordMatchesPerLineSteps: FuzzTauIndex holds ApplyTauWordInPlace
// to ApplyTauInPlace's rule over the lines of its mask (the dense mirror's
// per-line steps) on fuzzTopo and wideTopo; here it must panic, naming
// core, on a word step no drain may hand over.
func TestTauWordMatchesPerLineSteps(t *testing.T) {
	// Steps no drain may hand over: lines of two runs (wideTopo's lines 0–2
	// are machine 0's, 3–5 machine 1's; one line past the run is enough),
	// a line the source does not cache,
	// no line at all, and a destination other than the owner's.
	s := NewState(wideTopo())
	for l := range LocID(6) {
		s.SetCache(5, l, 1)
	}
	s.SetCache(0, 0, 1)
	for _, tw := range []TauWord{
		{From: 5, Word: 0, Mask: 0b111111},
		{From: 5, Word: 0, Mask: 0b1111},
		{From: 5, Word: 0, Mask: 0b1000000},
		{From: 5, Word: 0},
		{From: 5, Word: 0, Mask: 0b111, ToMemory: true},
		{From: 0, Word: 0, Mask: 0b1},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "core: ApplyTauWordInPlace:") {
					t.Errorf("%v: panicked with %q, want a core: message", tw, msg)
				}
			}()
			ApplyTauWordInPlace(s.Clone(), tw)
		}()
	}
}

// storeWordLines returns m's store labels of op for the lines of word w
// that mask names, with vals in ascending order of the lines: the per-line
// steps ApplyStoreWordInPlace is held to.
func storeWordLines(op Op, m MachineID, w int, mask uint64, vals []Val) []Label {
	var steps []Label
	for i, word := 0, mask; word != 0; i, word = i+1, word&(word-1) {
		steps = append(steps, Label{Op: op, M: m, Loc: LocID(w<<6 | bits.TrailingZeros64(word)), Val: vals[i]})
	}
	return steps
}

// TestStoreWordMatchesPerLineSteps: FuzzTauIndex holds
// ApplyStoreWordInPlace to ApplyInPlace over its stores (the dense
// mirror's per-line stores) on fuzzTopo and wideTopo; here it must panic,
// naming core, on a word step no record may be cut into.
func TestStoreWordMatchesPerLineSteps(t *testing.T) {
	// Steps no record may be cut into: lines of two runs (wideTopo's lines
	// 0–2 are machine 0's, 3–5 machine 1's; one line past the run is
	// enough), no line, a value too many or too few, a line past the
	// topology, and an op that is not a store.
	s := NewState(wideTopo())
	for _, c := range []struct {
		op   Op
		w    int
		mask uint64
		vals []Val
	}{
		{OpLStore, 0, 0b1111, []Val{1, 2, 3, 4}},
		{OpMStore, 0, 0b1100, []Val{1, 2}},
		{OpLStore, 0, 0, nil},
		{OpLStore, 0, 0b11, []Val{1}},
		{OpRStore, 0, 0b1, []Val{1, 2}},
		{OpLStore, 3, 1 << 48, []Val{1}},
		{OpLStore, 4, 0b1, []Val{1}},
		{OpLRMW, 0, 0b1, []Val{1}},
		{OpLoad, 0, 0b1, []Val{1}},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "core: ") {
					t.Errorf("%v of %#x in word %d with %v: panicked with %q, want a core: message", c.op, c.mask, c.w, c.vals, msg)
				}
			}()
			ApplyStoreWordInPlace(s.Clone(), c.op, 0, c.w, c.mask, c.vals)
		}()
	}
}

// TestOwnerMatchesRuns: after registrations of single locations and of
// ranges, some shorter than a word and some longer, Owner — answered from
// the per-word table where one machine owns the word — equals the owner
// the search of the runs finds, for every location.
func TestOwnerMatchesRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 50; trial++ {
		topo := NewTopology()
		for m := range 4 {
			topo.AddMachine(fmt.Sprintf("m%d", m), NonVolatile)
		}
		for reg := 0; reg < 40; reg++ {
			m := MachineID(rng.Intn(4))
			if rng.Intn(3) == 0 {
				topo.AddLoc(fmt.Sprintf("n%d", reg), m)
			} else {
				topo.AddLocs(m, []int{0, 1, 3, 63, 64, 65, 200}[rng.Intn(7)])
			}
		}
		for l := range LocID(topo.NumLocs()) {
			if got, want := topo.Owner(l), topo.runs[topo.runAt(l)].m; got != want {
				t.Fatalf("trial %d: Owner(%d) = %d, the runs say %d", trial, l, got, want)
			}
		}
	}
}

// TestLocNamesRoundTrip: every location's name resolves back to it, for
// named locations and for the anonymous ranges whose names are made on
// demand, and nothing else of the anonymous form resolves.
func TestLocNamesRoundTrip(t *testing.T) {
	topo := fuzzTopo()
	for l := LocID(0); int(l) < topo.NumLocs(); l++ {
		name := topo.LocName(l)
		if got, ok := topo.LocByName(name); !ok || got != l {
			t.Fatalf("LocByName(LocName(%d) = %q) = %d, %v", l, name, got, ok)
		}
	}
	for _, want := range []struct {
		l    LocID
		name string
	}{{0, "a[0]"}, {69, "a[69]"}, {70, "x"}, {71, "b[71]"}, {4228, "a[4228]"}} {
		if got := topo.LocName(want.l); got != want.name {
			t.Errorf("LocName(%d) = %q, want %q", want.l, got, want.name)
		}
	}
	for _, ghost := range []string{
		"b[70]",   // x's ID: a named location has only its given name
		"b[69]",   // owned by a
		"a[4231]", // past the end
		"a[-1]", "a[+1]", "a[01]", "a[1", "a1]", "a[]", "[1]", "q[1]", "",
	} {
		if l, ok := topo.LocByName(ghost); ok {
			t.Errorf("LocByName(%q) found location %d", ghost, l)
		}
	}
}

// TestAnonymousNameCollisionPanics: a named location may not take the name
// of an anonymous one, whichever of the two is registered first.
func TestAnonymousNameCollisionPanics(t *testing.T) {
	for _, order := range []struct {
		name  string
		build func(*Topology, MachineID)
	}{
		{"AddLoc after AddLocs", func(topo *Topology, m MachineID) {
			topo.AddLocs(m, 4)
			topo.AddLoc("m[2]", m)
		}},
		{"AddLocs after AddLoc", func(topo *Topology, m MachineID) {
			topo.AddLoc("m[2]", m)
			topo.AddLocs(m, 4)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: two locations named m[2] and no panic", order.name)
				}
			}()
			topo := NewTopology()
			order.build(topo, topo.AddMachine("m", NonVolatile))
		}()
	}
	// The same spelling is free while no anonymous location answers to it.
	topo := NewTopology()
	m := topo.AddMachine("m", NonVolatile)
	topo.AddLocs(m, 2)
	if l := topo.AddLoc("m[7]", m); topo.LocName(l) != "m[7]" {
		t.Errorf("LocName(%d) = %q, want the given name m[7]", l, topo.LocName(l))
	}
}

// TestOwnerOutsideTheTopologyPanicsByName: asking for the owner of a
// location that was never registered is a caller's bug, reported like
// AddLoc and AddLocs report theirs.
func TestOwnerOutsideTheTopologyPanicsByName(t *testing.T) {
	topo := fuzzTopo()
	for _, l := range []LocID{-1, LocID(topo.NumLocs()), LocID(topo.NumLocs()) + 7} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "core: Owner:") {
					t.Errorf("Owner(%d) panicked with %q, want a core: message", l, msg)
				}
			}()
			topo.Owner(l)
		}()
	}
}
