// Package core implements CXL0, the operational programming model for
// coherent disaggregated memory over CXL introduced by Assa et al.
// (ASPLOS 2026).
//
// The model is a labeled transition system. A system consists of N machines
// connected by a CXL fabric. Each machine i has an abstract local cache
// C_i : Loc -> Val ∪ {⊥} over the whole shared address space, and an
// abstract local memory M_i : Loc_i -> Val over the locations it owns.
// "Cache" and "memory" do not correspond one-to-one to hardware structures;
// they capture how far a write has propagated towards physical persistence.
//
// Transitions are labeled with the CXL0 primitives
//
//	Load_i(x,v)    — read; served from any valid cache copy (all valid
//	                 copies agree, by the global invariant), else from the
//	                 owner's memory when no cache holds the line
//	LStore_i(x,v)  — store into the issuer's cache
//	RStore_i(x,v)  — store into the owner's cache
//	MStore_i(x,v)  — store directly into the owner's memory
//	LFlush_i(x)    — block until the issuer's cache no longer holds x
//	RFlush_i(x)    — block until no cache holds x
//	RFlushRange_i(x,n) — ranged persistent flush: block until no cache holds
//	                 any of the n consecutive locations starting at x (§7's
//	                 finer-grained flush sketch; RFlushRange(x,1) ≡ RFlush(x))
//	GPF_i          — global persistent flush: block until all caches drain
//	L/R/M-RMW      — atomic read-modify-write, store half as above
//
// An RMW that succeeds reads the unique cached copy of x, wherever it is,
// or memory when there is none — in every variant: §3.3 gives the RMW
// rules once and §3.5 does not vary them, so under LWB a successful RMW
// does not wait for a peer's copy to be written back. An RMW whose compare
// fails is not a transition of its own: it is the variant's Load (§3.3),
// which under LWB is served only from the issuer's cache or, once no cache
// holds x, from memory. The explorer and the runtime both step it that way.
//
// plus silent nondeterministic propagation steps τ (cache-to-owner-cache and
// owner-cache-to-memory, modeling cache replacement) and per-machine crash
// steps E_i (the cache vanishes; volatile memory resets to zero).
//
// Two hardware variants from §3.5 of the paper are supported:
//
//	PSN — crash with cache-line poisoning: a crash of machine i also
//	      invalidates i-owned lines in every other cache.
//	LWB — remote loads with implicit write-back: loads are served from the
//	      issuer's own cache or, after full propagation, from memory;
//	      a machine never reads directly out of a peer's cache.
//
// The package provides states, labels, the step relation (per variant), and
// the global single-valid-value invariant. The step relation is written
// once, as steps on the state it is given (inplace.go: each labeled rule's
// premise and its effect under ApplyInPlace, ApplyTauInPlace, CrashInPlace,
// and State.Observed — the value a load observes under a variant, or that
// it is blocked); Apply, ApplyTau and Crash are Clone followed by those,
// and ApplyTauWordInPlace takes the τ steps of one occupancy word's lines
// at once, as ApplyTauInPlace would one by one; ApplyStoreWordInPlace
// does the same for one machine's stores to them. Exhaustive exploration utilities live
// in package explore and call the cloning API; the executable concurrent
// runtime lives in package memsim and steps its one live state in place.
// Both resolve a primitive to a label through Observed and Readable, so
// they execute the same rules.
package core
