package core

import (
	"fmt"
	"strings"
)

// Variant selects one of the paper's model flavours (§3.5).
type Variant int

const (
	// Base is plain CXL0 (Figure 2).
	Base Variant = iota
	// PSN is CXL0 with cache-line poisoning on crash: a crash of machine i
	// additionally invalidates i-owned lines in every other cache.
	PSN
	// LWB is CXL0 with implicit write-back on remote loads: loads are served
	// from the issuer's own cache, or from memory once no cache holds the
	// line; peers' caches are never read directly.
	LWB
)

func (v Variant) String() string {
	switch v {
	case Base:
		return "CXL0"
	case PSN:
		return "CXL0-PSN"
	case LWB:
		return "CXL0-LWB"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists all model variants.
var Variants = []Variant{Base, PSN, LWB}

// ParseVariant converts a variant's short name — base, psn or lwb, as the
// litmus scripts and CLI flags spell them, matched case-insensitively —
// into a Variant.
func ParseVariant(name string) (Variant, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "base":
		return Base, nil
	case "psn":
		return PSN, nil
	case "lwb":
		return LWB, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want base, psn or lwb)", name)
}

// Apply returns the states reachable from s by performing exactly the
// labeled transition l under variant v, with no interleaved τ steps: a
// clone of s stepped by ApplyInPlace, which holds every rule of Figure 2
// (inplace.go). The result is empty when l is not enabled (e.g. a Load
// whose expected value does not match, or a flush whose precondition does
// not hold yet) — asked first, so that a blocked label costs no clone. τ
// (silent propagation) is in TauSuccessors, since it carries no label.
func Apply(s *State, l Label, v Variant) []*State {
	if !enabled(s, l, v) {
		return nil
	}
	n := s.Clone()
	ApplyInPlace(n, l, v)
	return []*State{n}
}

// Crash returns the state after machine m crashes under variant v: a clone
// of s stepped by CrashInPlace.
func Crash(s *State, m MachineID, v Variant) *State {
	n := s.Clone()
	CrashInPlace(n, m, v)
	return n
}

// TauStep describes one silent propagation step.
type TauStep struct {
	// From is the machine whose cache gives up the line.
	From MachineID
	// Loc is the propagated location.
	Loc LocID
	// ToMemory is true for owner-cache→memory (vertical) propagation and
	// false for cache→owner-cache (horizontal) propagation.
	ToMemory bool
}

func (t TauStep) String() string {
	if t.ToMemory {
		return fmt.Sprintf("τ(C%d→M, loc%d)", t.From, t.Loc)
	}
	return fmt.Sprintf("τ(C%d→C, loc%d)", t.From, t.Loc)
}

// TauSteps enumerates the silent propagation steps enabled in s:
//
//   - Propagate-C-C: a non-owner cache holding x moves its copy to the
//     owner's cache (removing it locally).
//   - Propagate-C-M: the owner's cache holding x writes it back to the
//     owner's memory, invalidating x in every cache.
func TauSteps(s *State) []TauStep {
	var steps []TauStep
	for m := range s.rows {
		for w := range s.rows[m].page {
			for i, val := range s.lines(MachineID(m), w) {
				if val == Bot {
					continue
				}
				l := LocID(w*pageCells + i)
				steps = append(steps, TauStep{From: MachineID(m), Loc: l, ToMemory: s.topo.Owner(l) == MachineID(m)})
			}
		}
	}
	return steps
}

// ApplyTau performs one silent propagation step, which must be enabled: a
// clone of s stepped by ApplyTauInPlace.
func ApplyTau(s *State, t TauStep) *State {
	n := s.Clone()
	ApplyTauInPlace(n, t)
	return n
}

// TauSuccessors returns the states reachable from s by exactly one τ step.
func TauSuccessors(s *State) []*State {
	steps := TauSteps(s)
	out := make([]*State, 0, len(steps))
	for _, st := range steps {
		out = append(out, ApplyTau(s, st))
	}
	return out
}
