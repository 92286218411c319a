package ds

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cxl0/internal/core"
	"cxl0/internal/flit"
	"cxl0/internal/memsim"
)

// Property-based testing of the data structures against pure-Go reference
// models: random operation sequences, executed sequentially with eviction
// churn and periodic crash/recovery of the memory host, must agree with
// the reference at every step. Because the strategy is sound and the
// execution is sequential, a crash between operations must be invisible.

func propRig(strat flit.Strategy, seed int64) (*memsim.Cluster, *flit.Heap, *flit.Session, error) {
	c := memsim.NewCluster([]memsim.MachineConfig{
		{Name: "compute", Mem: core.NonVolatile, Heap: 16},
		{Name: "memory", Mem: core.NonVolatile, Heap: 16384},
	}, memsim.Config{EvictEvery: 3, Seed: seed})
	th, err := c.NewThread(0)
	if err != nil {
		return nil, nil, nil, err
	}
	h, err := flit.NewHeap(c, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	return c, h, flit.NewSession(strat, th), nil
}

func TestQueueAgainstReferenceModel(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		c, h, se, err := propRig(flit.CXL0FliT, seed)
		if err != nil {
			t.Log(err)
			return false
		}
		q, err := NewQueue(h, se)
		if err != nil {
			t.Log(err)
			return false
		}
		var ref []core.Val
		rng := rand.New(rand.NewSource(seed))
		for i, b := range opsRaw {
			if i > 80 {
				break
			}
			switch b % 4 {
			case 0, 1:
				v := core.Val(1 + int(b)%100)
				if err := q.Enqueue(se, v); err != nil {
					t.Log(err)
					return false
				}
				ref = append(ref, v)
			case 2:
				v, ok, err := q.Dequeue(se)
				if err != nil {
					t.Log(err)
					return false
				}
				if ok != (len(ref) > 0) {
					t.Logf("op %d: dequeue ok=%v, reference has %d", i, ok, len(ref))
					return false
				}
				if ok {
					if v != ref[0] {
						t.Logf("op %d: dequeued %d, reference head %d", i, v, ref[0])
						return false
					}
					ref = ref[1:]
				}
			default:
				// Crash and recover the memory host between operations;
				// a sound strategy makes this invisible.
				if rng.Intn(2) == 0 {
					c.Crash(1)
					c.Recover(1)
					if err := q.Recover(se); err != nil {
						t.Log(err)
						return false
					}
				} else {
					c.Churn(3)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestMapAgainstReferenceModel(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		c, h, se, err := propRig(flit.CXL0FliTOpt, seed)
		if err != nil {
			t.Log(err)
			return false
		}
		m, err := NewMap(h, 4)
		if err != nil {
			t.Log(err)
			return false
		}
		ref := map[core.Val]core.Val{}
		for i, b := range opsRaw {
			if i > 80 {
				break
			}
			k := core.Val(1 + int(b)%6)
			switch (b / 8) % 4 {
			case 0:
				v := core.Val(1 + int(b)%50)
				if err := m.Put(se, k, v); err != nil {
					t.Log(err)
					return false
				}
				ref[k] = v
			case 1:
				v, ok, err := m.Get(se, k)
				if err != nil {
					t.Log(err)
					return false
				}
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					t.Logf("op %d: get(%d) = (%d,%v), reference (%d,%v)", i, k, v, ok, rv, rok)
					return false
				}
			case 2:
				ok, err := m.Delete(se, k)
				if err != nil {
					t.Log(err)
					return false
				}
				_, rok := ref[k]
				if ok != rok {
					t.Logf("op %d: delete(%d) = %v, reference %v", i, k, ok, rok)
					return false
				}
				delete(ref, k)
			default:
				c.Crash(1)
				c.Recover(1)
			}
		}
		// Final full comparison.
		snap, err := m.Snapshot(se)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(snap) != len(ref) {
			t.Logf("final size %d, reference %d", len(snap), len(ref))
			return false
		}
		for k, v := range ref {
			if snap[k] != v {
				t.Logf("final [%d] = %d, reference %d", k, snap[k], v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// TestMapBucketsAscending holds the map to the form of Michael's hash
// table: after a random put/delete program, the unmarked nodes of every
// bucket carry strictly ascending keys. It reads each chain by the node
// layout (key, value, marked next), not through the list it checks.
func TestMapBucketsAscending(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		_, h, se, err := propRig(flit.CXL0FliTOpt, seed)
		if err != nil {
			t.Log(err)
			return false
		}
		m, err := NewMap(h, 4)
		if err != nil {
			t.Log(err)
			return false
		}
		for i, b := range opsRaw {
			if i > 80 {
				break
			}
			k := core.Val(1 + int(b)%24)
			if b%5 == 0 {
				_, err = m.Delete(se, k)
			} else {
				err = m.Put(se, k, core.Val(b))
			}
			if err != nil {
				t.Log(err)
				return false
			}
		}
		for i, head := range m.buckets {
			e, err := se.Load(head)
			if err != nil {
				t.Log(err)
				return false
			}
			var keys []core.Val
			for cur, _ := dec(e); cur != nilPtr; {
				base, _ := nodeBase(cur)
				key, err := se.Load(field(h, base, 0))
				if err != nil {
					t.Log(err)
					return false
				}
				nextE, err := se.Load(field(h, base, 2))
				if err != nil {
					t.Log(err)
					return false
				}
				next, marked := dec(nextE)
				if !marked {
					keys = append(keys, key)
				}
				cur = next
			}
			for j := 1; j < len(keys); j++ {
				if keys[j-1] >= keys[j] {
					t.Logf("bucket %d holds keys %v, not strictly ascending", i, keys)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

func TestSetAgainstReferenceModel(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		c, h, se, err := propRig(flit.CXL0FliT, seed)
		if err != nil {
			t.Log(err)
			return false
		}
		s, err := NewSet(h)
		if err != nil {
			t.Log(err)
			return false
		}
		ref := map[core.Val]bool{}
		for i, b := range opsRaw {
			if i > 80 {
				break
			}
			k := core.Val(1 + int(b)%8)
			switch (b / 16) % 4 {
			case 0:
				ok, err := s.Insert(se, k)
				if err != nil {
					t.Log(err)
					return false
				}
				if ok == ref[k] {
					t.Logf("op %d: insert(%d) = %v, reference member=%v", i, k, ok, ref[k])
					return false
				}
				ref[k] = true
			case 1:
				ok, err := s.Remove(se, k)
				if err != nil {
					t.Log(err)
					return false
				}
				if ok != ref[k] {
					t.Logf("op %d: remove(%d) = %v, reference member=%v", i, k, ok, ref[k])
					return false
				}
				delete(ref, k)
			case 2:
				ok, err := s.Contains(se, k)
				if err != nil {
					t.Log(err)
					return false
				}
				if ok != ref[k] {
					t.Logf("op %d: contains(%d) = %v, reference %v", i, k, ok, ref[k])
					return false
				}
			default:
				c.Crash(1)
				c.Recover(1)
			}
		}
		// The snapshot must be the sorted reference set.
		snap, err := s.Snapshot(se)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(snap) != len(ref) {
			t.Logf("final size %d, reference %d", len(snap), len(ref))
			return false
		}
		for i, k := range snap {
			if !ref[k] {
				t.Logf("phantom key %d", k)
				return false
			}
			if i > 0 && snap[i-1] >= k {
				t.Logf("snapshot unsorted: %v", snap)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestStackAgainstReferenceModel(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		c, h, se, err := propRig(flit.MStoreAll, seed)
		if err != nil {
			t.Log(err)
			return false
		}
		st, err := NewStack(h)
		if err != nil {
			t.Log(err)
			return false
		}
		var ref []core.Val
		for i, b := range opsRaw {
			if i > 80 {
				break
			}
			switch b % 3 {
			case 0:
				v := core.Val(1 + int(b)%100)
				if err := st.Push(se, v); err != nil {
					t.Log(err)
					return false
				}
				ref = append(ref, v)
			case 1:
				v, ok, err := st.Pop(se)
				if err != nil {
					t.Log(err)
					return false
				}
				if ok != (len(ref) > 0) {
					return false
				}
				if ok {
					if v != ref[len(ref)-1] {
						t.Logf("op %d: popped %d, reference top %d", i, v, ref[len(ref)-1])
						return false
					}
					ref = ref[:len(ref)-1]
				}
			default:
				c.Crash(1)
				c.Recover(1)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}
