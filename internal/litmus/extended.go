package litmus

import (
	"cxl0/internal/core"
)

// Extended returns litmus tests beyond the paper's corpus: model-level
// encodings of the reproduction findings package flit's comment and
// docs/persistence.md describe (counter rollback, vacuous flushes,
// poisoned in-flight stores) and additional
// sanity traces for GPF and RMW persistence. Expected verdicts were
// derived by hand from the Figure 2 semantics and are revalidated by the
// checker on every test run.
func Extended() []*Test {
	topo := core.NewTopology()
	m1 := topo.AddMachine("machine1", core.NonVolatile) // compute
	m2 := topo.AddMachine("machine2", core.NonVolatile) // compute
	m3 := topo.AddMachine("machine3", core.NonVolatile) // memory host
	x := topo.AddLoc("x", m3)
	c := topo.AddLoc("c", m3) // a FliT counter cell
	_ = m2

	base := func(ok bool) map[core.Variant]bool { return map[core.Variant]bool{core.Base: ok} }
	all3 := func(b, l, p bool) map[core.Variant]bool {
		return map[core.Variant]bool{core.Base: b, core.LWB: l, core.PSN: p}
	}

	return []*Test{
		{
			ID: 101, Topo: topo, Expected: base(true),
			Paper: "F2: LStore1(x,1); E3; RFlush1(x); Load1(x,0)",
			Note: "vacuous flush: eviction may park x in the owner's cache, the owner's " +
				"crash destroys it, and the later RFlush succeeds over the empty caches " +
				"— the store+flush pair is not crash-atomic",
			Trace: []core.Label{
				core.LStoreL(m1, x, 1), core.CrashL(m3), core.RFlushL(m1, x), core.LoadL(m1, x, 0),
			},
		},
		{
			ID: 102, Topo: topo, Expected: base(true),
			Paper: "F2': LStore1(x,1); E3; RFlush1(x); Load1(x,1)",
			Note: "…but the value may equally survive in the writer's cache, so both " +
				"outcomes of the crash window are reachable (hence the need for crash " +
				"detection or MStore)",
			Trace: []core.Label{
				core.LStoreL(m1, x, 1), core.CrashL(m3), core.RFlushL(m1, x), core.LoadL(m1, x, 1),
			},
		},
		{
			ID: 103, Topo: topo, Expected: base(false),
			Paper: "F2 repair: MStore1(x,1); E3; Load1(x,0)",
			Note:  "MStore closes the window: no crash placement can lose the value",
			Trace: []core.Label{core.MStoreL(m1, x, 1), core.CrashL(m3), core.LoadL(m1, x, 0)},
		},
		{
			ID: 104, Topo: topo, Expected: base(true),
			Paper: "F1: L-RMW1(c,0,1); LStore1(x,1); Load2(x,1); E1; Load2(c,0)",
			Note: "counter rollback: the cached counter increment dies with machine1 " +
				"while the data value, replicated by machine2's load, stays visible — " +
				"a reader can see new data with a zero counter",
			Trace: []core.Label{
				core.RMWL(core.OpLRMW, m1, c, 0, 1), core.LStoreL(m1, x, 1),
				core.LoadL(m2, x, 1), core.CrashL(m1), core.LoadL(m2, c, 0),
			},
		},
		{
			ID: 105, Topo: topo, Expected: base(false),
			Paper: "F1 repair: M-RMW1(c,0,1); LStore1(x,1); Load2(x,1); E1; Load2(c,0)",
			Note:  "a persistent (M-RMW) increment cannot roll back",
			Trace: []core.Label{
				core.RMWL(core.OpMRMW, m1, c, 0, 1), core.LStoreL(m1, x, 1),
				core.LoadL(m2, x, 1), core.CrashL(m1), core.LoadL(m2, c, 0),
			},
		},
		{
			ID: 106, Topo: topo, Expected: all3(true, false, false),
			Paper: "F3: LStore1(x,1); E3; Load2(x,1); E3; Load2(x,0)",
			Note: "consecutive owner crashes: only base CXL0 lets a value be observed " +
				"after the first crash and still die in the second — PSN poisons every " +
				"copy at the first crash (so observing 1 implies it persisted), and LWB " +
				"persists the value at the observing load",
			Trace: []core.Label{
				core.LStoreL(m1, x, 1), core.CrashL(m3), core.LoadL(m2, x, 1),
				core.CrashL(m3), core.LoadL(m2, x, 0),
			},
		},
		{
			ID: 107, Topo: topo, Expected: base(false),
			Paper: "GPF: LStore1(x,1); GPF1; E3; Load1(x,0)",
			Note:  "a global persistent flush before the crash forces persistence",
			Trace: []core.Label{
				core.LStoreL(m1, x, 1), core.GPFL(m1), core.CrashL(m3), core.LoadL(m1, x, 0),
			},
		},
		{
			ID: 108, Topo: topo, Expected: base(true),
			Paper: "RMW volatility: L-RMW1(x,0,1); E3; Load1(x,0)",
			Note:  "a cached RMW is as volatile as an LStore",
			Trace: []core.Label{
				core.RMWL(core.OpLRMW, m1, x, 0, 1), core.CrashL(m3), core.LoadL(m1, x, 0),
			},
		},
		{
			ID: 109, Topo: topo, Expected: base(false),
			Paper: "RMW persistence: M-RMW1(x,0,1); E3; Load1(x,0)",
			Note:  "an M-RMW is crash-atomic",
			Trace: []core.Label{
				core.RMWL(core.OpMRMW, m1, x, 0, 1), core.CrashL(m3), core.LoadL(m1, x, 0),
			},
		},
		{
			ID: 110, Topo: topo, Expected: all3(true, false, true),
			Paper: "LWB persists what it shows: LStore1(x,1); Load2(x,1); E1; E3; Load2(x,0)",
			Note: "under LWB machine2's load forces a write-back, so the value is " +
				"persistent the moment anyone else sees it; Base allows the loss via " +
				"eviction into machine3's dying cache, and PSN allows it too — the " +
				"poisoning at E3 destroys machine2's replicated copy outright",
			Trace: []core.Label{
				core.LStoreL(m1, x, 1), core.LoadL(m2, x, 1),
				core.CrashL(m1), core.CrashL(m3), core.LoadL(m2, x, 0),
			},
		},
	}
}
