package kvtest

import (
	"math"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/kv"
	"cxl0/internal/kv/kvspec"
)

const (
	// programKeys is a Program's key space: a few dozen keys per store,
	// so a scan limit below 40 both cuts most shards' runs in the merge
	// and, early in a program or on a narrow range, exceeds what is live.
	programKeys = 96
	// ProgramSteps caps a Program; the rest of a longer one is unread. A
	// step writes at most 6 records, so a log of 6 × ProgramSteps records
	// never fills.
	ProgramSteps = 300
)

// Program decodes prog into steps on a checked DB of f for cfg, which
// holds every outcome to kvspec. Every 4 bytes (op, a, b, c) are one
// step: a put, a delete, a Sync, a partition or heal of a shard, an Apply
// of up to 6 puts and deletes, a MultiGet of up to 8 keys, Scan(lo, hi,
// limit) with limit in [0, 40), a crash + recover of one shard (healed
// first if it is partitioned), a Compact, or a front-end crash, a write
// and a read it must deny, and RecoverFront (partitions healed first). A
// step may fail only with a denial the faults excuse.
//
// Under GPFEach and GroupCommit a partition blocks every commit in its
// cluster, and a batched write the GPF refuses keeps its record under no
// Ack; kvspec has no rule for it (kv's specRun covers it), so there the
// partition step does nothing.
func Program(t *testing.T, f Factory, cfg kv.Config, prog []byte) {
	db := check(t, f, cfg)
	n := db.NumShards()
	gpf := cfg.Strategy == kv.GPFEach || cfg.Strategy == kv.GroupCommit
	for i := 0; i+3 < len(prog) && i < 4*ProgramSteps; i += 4 {
		op, a, b, c := prog[i], prog[i+1], prog[i+2], prog[i+3]
		key := core.Val(a) % programKeys
		var err error
		switch op % 32 {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11:
			_, err = db.Put(key, 1+core.Val(b)+core.Val(c)<<8)
		case 12, 13, 14:
			_, err = db.Delete(key)
		case 15, 16:
			err = db.Sync()
		case 17:
			if !gpf {
				db.Partition(int(a) % n)
			}
		case 18, 19:
			// The first partitioned shard from a on, so that most heals heal.
			for j := range n {
				if sh := (int(a) + j) % n; db.spec.Part[sh] {
					db.Heal(sh)
					break
				}
			}
		case 20, 21:
			// Op j puts key a + j*b (mod the key space), or deletes it
			// when bit j of c is set.
			var ops []kvspec.Rec
			for j := range 1 + int(c>>5)%6 {
				k, val := (key+core.Val(j)*core.Val(b))%programKeys, 1+core.Val(b)+core.Val(j)<<8
				if c>>j&1 == 1 {
					val = 0
				}
				ops = append(ops, kvspec.Rec{Key: k, Val: val})
			}
			_, err = db.apply(ops...)
		case 22, 23:
			var keys []core.Val
			for j := range 1 + int(c)%8 {
				keys = append(keys, (key+core.Val(j)*core.Val(b))%programKeys)
			}
			_, err = db.MultiGet(keys)
		case 24:
			sh := int(a) % n
			if db.spec.Part[sh] {
				db.Heal(sh)
			}
			db.Crash(sh)
			_, err = db.Recover(sh)
		case 25:
			_, err = db.Compact()
		case 26:
			for sh := range n {
				db.Heal(sh)
			}
			db.CrashFront()
			// The checked DB wants both denied with ErrFrontDown.
			db.Put(key, 1)
			db.Get(key)
			_, err = db.RecoverFront()
		default:
			lo, hi := key, core.Val(math.MaxInt64)
			if b&1 == 1 {
				hi = lo + 1 + core.Val(b>>1)%programKeys
			}
			_, err = db.Scan(lo, hi, int(c)%40)
		}
		if err != nil && !db.excused(err) {
			t.Fatalf("step %d (op %d): %v (partitioned: %v)", i/4, op%32, err, db.spec.Part)
		}
	}
}
