package kv

// A shard's medium: what the shard keeps in its machine's persistent
// memory, and the one place that knows its format. Recovery trusts only
// what reached this memory, so the format below is the contract it reads.
// The medium is four regions, each an array of recWords-word checksummed
// records: the log, the two snapshot halves (epoch e's snapshot lives in
// half e%2) and the two-slot snapshot-epoch record (slot e%2 holds epoch
// e's commit record). Everything outside this file addresses a record by
// region and slot; TestSeams holds the loads, MStores and word addresses
// of the medium here, apart from the strategy's word writer (persist.go)
// and the three value loads of an encoded slot (valLocOf).

import (
	"fmt"

	"cxl0/internal/core"
	"cxl0/internal/memsim"
)

// recWords is the record layout: [key, value, chk] — and, in the epoch
// region, [epoch, snapLen, chk].
const recWords = 3

// epochSlots is the epoch record's slot count: its two parities.
const epochSlots = 2

// mediumWords is the heap a shard of the given capacity needs: the log,
// two snapshot halves and the epoch record.
func mediumWords(capacity int) int { return (3*capacity + epochSlots) * recWords }

// region is one array of records on a shard's machine; slots is how
// many it holds.
type region struct {
	base  core.LocID
	slots int
}

// loc addresses word w of record slot.
func (r region) loc(slot, w int) core.LocID { return r.base + core.LocID(slot*recWords+w) }

// holds refuses records [first, first+n) unless every one is a slot of
// the region: a writer checks before it stores, so a slot past the end
// never lands in the neighbouring region.
func (r region) holds(first, n int) error {
	if n > 0 && (first < 0 || first+n > r.slots) {
		return fmt.Errorf("%w: records [%d,%d) of a %d-record region", ErrOutOfRange, first, first+n, r.slots)
	}
	return nil
}

// read loads record slot's words, in key, value, checksum order, under
// one take of the cluster lock.
func (r region) read(t *memsim.Thread, slot int) (words [recWords]core.Val, err error) {
	err = t.LoadWords(r.loc(slot, 0), words[:])
	return words, err
}

// retire MStores zero over the checksum words of slots [from, to), so
// their records can never validate again — MStore is persistent at
// return under every strategy. It stops at the first failed store.
func (r region) retire(t *memsim.Thread, from, to int) error {
	if err := r.holds(from, to-from); err != nil {
		return err
	}
	for slot := from; slot < to; slot++ {
		if err := t.MStore(r.loc(slot, recWords-1), 0); err != nil {
			return err
		}
	}
	return nil
}

// allocMedium allocates the shard's four regions on its machine, in
// address order: log, snapshot halves 0 and 1, epoch record.
func (sh *shard) allocMedium(c *memsim.Cluster) error {
	for _, r := range []*region{&sh.logR, &sh.snaps[0], &sh.snaps[1], &sh.epochR} {
		slots := sh.cap
		if r == &sh.epochR {
			slots = epochSlots
		}
		base, err := c.Alloc(sh.machine, slots*recWords)
		if err != nil {
			return err
		}
		r.base, r.slots = base, slots
	}
	return nil
}

// snapR is the snapshot half holding epoch's snapshot.
func (sh *shard) snapR(epoch uint64) region { return sh.snaps[epoch%2] }

// valLocOf resolves an encoded slot (see view.decode) to its value
// location: in the log, or in the committed snapshot's half.
func (sh *shard) valLocOf(slot int) core.LocID {
	if i, inSnap := sh.view.decode(slot); inSnap {
		return sh.snapR(sh.epoch).loc(i, 1)
	}
	return sh.logR.loc(slot, 1)
}

// writeEpochRecord MStores the snapshot-epoch record (epoch, snapLen,
// checksum — checksum word last, so a torn write validates in neither
// slot) into its parity slot, a record at a time. MStore is persistent at
// return, making the completed record the compaction's commit point under
// every strategy.
func (sh *shard) writeEpochRecord(t *memsim.Thread, epoch uint64, snapLen int) error {
	words := [recWords]core.Val{core.Val(epoch), core.Val(snapLen), epochChkOf(epoch, snapLen)}
	return t.StoreWords(core.OpMStore, sh.epochR.loc(int(epoch%2), 0), words[:])
}

// readEpochRecord loads both snapshot-epoch slots and returns the valid
// one with the highest epoch; (0, 0) when neither validates (a shard
// that never compacted — the region's initial zeros are invalid in the
// epoch-checksum domain).
func (sh *shard) readEpochRecord(t *memsim.Thread) (epoch uint64, snapLen int, err error) {
	for parity := 0; parity < epochSlots; parity++ {
		w, err := sh.epochR.read(t, parity)
		if err != nil {
			return 0, 0, err
		}
		e, n := w[0], w[1]
		if e < 0 || n < 0 || w[2] != epochChkOf(uint64(e), int(n)) {
			continue
		}
		if uint64(e) > epoch {
			epoch, snapLen = uint64(e), int(n)
		}
	}
	return epoch, snapLen, nil
}

// chk returns the record's checksum word for log slot slot under the
// shard's snapshot epoch, in the domain matching its kind.
func (r rec) chk(slot int, epoch uint64) core.Val {
	if r.move {
		return moveChkOf(slot, r.key, r.val, epoch)
	}
	return chkOf(slot, r.key, r.val, epoch)
}

// chkOf is the record checksum: a function of the slot, the record's
// content and the shard's snapshot epoch, so a partially persisted record
// (some words still zero or stale) fails validation during the recovery
// scan — and so does a pre-compaction leftover once the epoch moves on:
// compaction reclaims the log by bumping the epoch, which retires every
// old record's checksum without touching the medium (see compact.go).
// Always >= 1, so a never-written slot (all zeros) is invalid.
func chkOf(slot int, key, val core.Val, epoch uint64) core.Val {
	h := (uint64(slot) + 1) * 0x9e3779b97f4a7c15
	h ^= (uint64(key) + 3) * 0xff51afd7ed558ccd
	h ^= (uint64(val) + 7) * 0xc4ceb9fe1a85ec53
	h ^= (epoch + 11) * 0x94d049bb133111eb
	h ^= h >> 29
	return core.Val(h%((1<<40)-1)) + 1
}

// moveChkOf is the checksum domain of move-marker records (bucket
// migration bookkeeping in the log; see migrate.go). Client checksums are
// < 2^41 and move checksums in [2^41, 2^42), so a record of one kind
// never validates as the other, with the same partial-persist detection:
// a half-written marker validates in neither domain. The kind itself is
// the front end's (rec.move): a checksum word moved into the other
// domain does not make a marker.
func moveChkOf(slot int, key, val core.Val, epoch uint64) core.Val {
	return chkOf(slot, key, val, epoch) + (1 << 41)
}

// snapChkOf is the checksum domain of snapshot records (>= 2^42): a
// compaction's snapshot region is validated in its own domain so a
// snapshot word can never be mistaken for a log record (or vice versa),
// with the same epoch binding — an old snapshot's leftovers in the
// double-buffered region never validate under a newer epoch.
func snapChkOf(slot int, key, val core.Val, epoch uint64) core.Val {
	return chkOf(slot, key, val, epoch) + (1 << 42)
}

// epochChkOf is the checksum of a snapshot-epoch record — the two-slot
// commit record of compaction, covering the epoch number and the snapshot
// length. Always >= 1, so the never-written initial state (all zeros) is
// invalid and decodes as "epoch 0, no snapshot".
func epochChkOf(epoch uint64, snapLen int) core.Val {
	h := (epoch + 5) * 0xff51afd7ed558ccd
	h ^= (uint64(snapLen) + 9) * 0x9e3779b97f4a7c15
	h ^= h >> 31
	return core.Val(h%((1<<40)-1)) + 1
}
