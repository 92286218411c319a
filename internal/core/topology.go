package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// MachineID identifies a machine (node) in the system.
type MachineID int

// LocID identifies a shared memory location. Location IDs are dense indices
// assigned by the Topology in creation order.
type LocID int

// Val is a memory value. The distinguished value 0 initializes every
// location. Values stored to memory must be non-negative; Bot is reserved
// as the cache-invalid sentinel ⊥.
type Val int64

// Bot is the "invalid" cache sentinel ⊥. It never appears in memory.
const Bot Val = -1

// MemKind says whether a machine's attached memory survives its crash.
type MemKind int

const (
	// Volatile memory resets to zero when its machine crashes.
	Volatile MemKind = iota
	// NonVolatile memory survives crashes of its machine (NVMM, or memory
	// in a separate failure domain such as an external pool).
	NonVolatile
)

func (k MemKind) String() string {
	switch k {
	case Volatile:
		return "volatile"
	case NonVolatile:
		return "non-volatile"
	}
	return fmt.Sprintf("MemKind(%d)", int(k))
}

// MachineSpec describes one machine in a topology.
type MachineSpec struct {
	Name string
	Mem  MemKind
}

// Topology is the static shape of a CXL0 system: the set of machines and
// the assignment of every shared location to its owning machine. A Topology
// is immutable once states have been created from it.
type Topology struct {
	machines []MachineSpec
	// runs assigns owners by run length: run i covers the locations from
	// runs[i].first up to the next run's first (numLocs for the last), all
	// owned by runs[i].m. Firsts ascend and neighbours differ in owner, so
	// there are at most as many runs as registrations.
	runs    []ownerRun
	numLocs int
	// wordOwner is, per 64-line occupancy word, the one machine owning
	// every registered line of it, or -1 where two runs share the word:
	// Owner answers from it and searches runs only for those words.
	wordOwner []int32
	// named lists the locations AddLoc registered, in ID order, and
	// locIndex finds them by name. Every other location came from AddLocs,
	// has no entry in either, and is called "<machine>[<id>]".
	named    []namedLoc
	locIndex map[string]LocID
}

type ownerRun struct {
	first LocID
	m     MachineID
}

type namedLoc struct {
	id   LocID
	name string
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{locIndex: make(map[string]LocID)}
}

// AddMachine registers a machine and returns its ID.
func (t *Topology) AddMachine(name string, mem MemKind) MachineID {
	t.machines = append(t.machines, MachineSpec{Name: name, Mem: mem})
	return MachineID(len(t.machines) - 1)
}

// AddLoc registers a shared location owned by machine m and returns its ID.
// Location names must be unique, the names of anonymous locations included.
func (t *Topology) AddLoc(name string, m MachineID) LocID {
	if _, dup := t.LocByName(name); dup {
		panic(fmt.Sprintf("core: duplicate location name %q", name))
	}
	if int(m) < 0 || int(m) >= len(t.machines) {
		panic(fmt.Sprintf("core: AddLoc(%q): no machine %d", name, m))
	}
	id := t.extend(m, 1)
	t.named = append(t.named, namedLoc{id, name})
	t.locIndex[name] = id
	return id
}

// AddLocs registers n anonymous locations owned by machine m and returns the
// ID of the first; the rest follow contiguously. Location l of them is
// called "<machine>[<l>]", a name made when asked for, not stored.
func (t *Topology) AddLocs(m MachineID, n int) LocID {
	if int(m) < 0 || int(m) >= len(t.machines) {
		panic(fmt.Sprintf("core: AddLocs: no machine %d", m))
	}
	first := LocID(t.numLocs)
	for _, nl := range t.named {
		if machine, id, ok := parseAnonName(nl.name); ok && machine == t.machines[m].Name && id >= first && id < first+LocID(n) {
			panic(fmt.Sprintf("core: duplicate location name %q", nl.name))
		}
	}
	return t.extend(m, max(n, 0))
}

// extend gives the next n location IDs to machine m and returns the first:
// they join the last run if it is m's, and start a run otherwise. A word
// they fill from its start is m's; a word they share with the run before
// is nobody's alone.
func (t *Topology) extend(m MachineID, n int) LocID {
	first := LocID(t.numLocs)
	if n > 0 && (len(t.runs) == 0 || t.runs[len(t.runs)-1].m != m) {
		t.runs = append(t.runs, ownerRun{first, m})
	}
	t.numLocs += n
	for w := int(first) >> 6; n > 0 && w<<6 < t.numLocs; w++ {
		if w == len(t.wordOwner) {
			t.wordOwner = append(t.wordOwner, int32(m))
		} else if t.wordOwner[w] != int32(m) {
			t.wordOwner[w] = -1
		}
	}
	return first
}

// parseAnonName splits a name of the form AddLocs gives, "<machine>[<id>]"
// with the ID in canonical decimal.
func parseAnonName(name string) (machine string, id LocID, ok bool) {
	open := strings.LastIndexByte(name, '[')
	if open < 0 || !strings.HasSuffix(name, "]") {
		return "", 0, false
	}
	digits := name[open+1 : len(name)-1]
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 || strconv.Itoa(n) != digits {
		return "", 0, false
	}
	return name[:open], LocID(n), true
}

// NumMachines returns the number of machines.
func (t *Topology) NumMachines() int { return len(t.machines) }

// NumLocs returns the number of shared locations.
func (t *Topology) NumLocs() int { return t.numLocs }

// Owner returns the machine owning location l.
func (t *Topology) Owner(l LocID) MachineID {
	if int(l) < 0 || int(l) >= t.numLocs {
		panic(fmt.Sprintf("core: Owner: no location %d", l))
	}
	if m := t.wordOwner[int(l)>>6]; m >= 0 {
		return MachineID(m)
	}
	return t.runs[t.runAt(l)].m
}

// runAt returns the index of the run holding location l, which must exist:
// the last run that starts at or before l.
func (t *Topology) runAt(l LocID) int {
	lo, hi := 0, len(t.runs)
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); t.runs[mid].first <= l {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// OwnerRuns calls f, in ascending order, on each maximal stretch [lo, hi)
// of [from, to) whose locations share an owner — what a walk over
// Owner(from), …, Owner(to-1) would find, at the cost of the runs it
// crosses instead of the locations.
func (t *Topology) OwnerRuns(from, to LocID, f func(owner MachineID, lo, hi LocID)) {
	if from >= to {
		return
	}
	if int(from) < 0 || int(to) > t.numLocs {
		panic(fmt.Sprintf("core: OwnerRuns: [%d,%d) outside the %d locations", from, to, t.numLocs))
	}
	for from < to {
		owner, past := t.runOf(from)
		past = min(past, to)
		f(owner, from, past)
		from = past
	}
}

// runOf returns the owner of location l, which must exist, and the first
// location past l's run.
func (t *Topology) runOf(l LocID) (owner MachineID, past LocID) {
	i := t.runAt(l)
	if i+1 < len(t.runs) {
		return t.runs[i].m, t.runs[i+1].first
	}
	return t.runs[i].m, LocID(t.numLocs)
}

// OwnerThrough returns the owner of location l and a location past l up
// to which it owns every line: the end of l's occupancy word when one
// machine owns the whole word, the end of l's run otherwise. It costs a
// table read where a walk of OwnerRuns costs a search.
func (t *Topology) OwnerThrough(l LocID) (owner MachineID, past LocID) {
	if int(l) < 0 || int(l) >= t.numLocs {
		panic(fmt.Sprintf("core: OwnerThrough: no location %d", l))
	}
	w := int(l) >> 6
	if m := t.wordOwner[w]; m >= 0 {
		return MachineID(m), LocID(min((w+1)<<6, t.numLocs))
	}
	return t.runOf(l)
}

// Mem returns the memory kind of machine m.
func (t *Topology) Mem(m MachineID) MemKind { return t.machines[m].Mem }

// MachineName returns the name of machine m.
func (t *Topology) MachineName(m MachineID) string { return t.machines[m].Name }

// givenName returns the name AddLoc registered l under, if it did.
func (t *Topology) givenName(l LocID) (string, bool) {
	i := sort.Search(len(t.named), func(i int) bool { return t.named[i].id >= l })
	if i < len(t.named) && t.named[i].id == l {
		return t.named[i].name, true
	}
	return "", false
}

// LocName returns the name of location l.
func (t *Topology) LocName(l LocID) string {
	if name, ok := t.givenName(l); ok {
		return name
	}
	return fmt.Sprintf("%s[%d]", t.machines[t.Owner(l)].Name, int(l))
}

// LocByName returns the location with the given name.
func (t *Topology) LocByName(name string) (LocID, bool) {
	if l, ok := t.locIndex[name]; ok {
		return l, true
	}
	machine, l, ok := parseAnonName(name)
	if !ok || int(l) >= t.numLocs || t.machines[t.Owner(l)].Name != machine {
		return 0, false
	}
	if _, named := t.givenName(l); named {
		return 0, false
	}
	return l, true
}
