package cxl0bench

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"cxl0/internal/core"
	"cxl0/internal/crashtest"
	"cxl0/internal/cxlsim"
	"cxl0/internal/explore"
	"cxl0/internal/flit"
	"cxl0/internal/flitbench"
	"cxl0/internal/golden"
	"cxl0/internal/latency"
	"cxl0/internal/litmus"
)

// claim is one row of RESULTS.md: where the paper makes it, what the paper
// says ("—" for a claim the repo makes on its own), what the repo derives,
// whether the two agree, and the function that derives it.
type claim struct {
	where, paper, repo string
	agree              bool
	check              string
}

// paperClaims lists RESULTS.md's sections in order, each a title and the
// function that derives its rows.
var paperClaims = []struct {
	title string
	rows  func(t *testing.T) []claim
}{
	{"Figure 3 — litmus tests 1–9", litmusClaims("figure3.litmus", paperRows)},
	{"§3.5 — tests 10–12 under each variant", litmusClaims("variants.litmus", paperRows)},
	{"§3.5 — the variant lattice (machines M1:nvm M2:vol, locations x@M1 y@M2)", latticeClaims},
	{"§6 — the motivating example: x on M2; M1 runs x=1; r1=x; r2=x; assert(r1==r2)", motivatingClaims},
	{"Proposition 1", propositionClaims},
	{"§4 — primitive availability per system configuration", availabilityClaims},
	{"Table 1 — CXL transactions observed per CXL0 primitive (HDM in host bias)", table1Claims},
	{"Figure 5 — median latency of each primitive, 1000 samples per bar", figure5Claims},
	{"§5.2 — latency ratios", ratioClaims},
	{"The disaggregation gap across CXL generations", projectionClaims},
	{"§6.1 — persistence-strategy cost, simulated ns/op, 2000 ops per cell", flitbenchClaims},
	{"§6.1 — ablations, simulated ns/op", ablationClaims},
	{"Extended litmus corpus (internal/litmus/testdata/findings.litmus)", litmusClaims("findings.litmus", ownRows)},
	{"cxl0-explore's walkthrough script (internal/litmus/testdata/walkthrough.litmus)", litmusClaims("walkthrough.litmus", traceRows)},
	{"§6 — durable linearizability under partial crashes, 8 seeds per cell, 3 workers × 6 ops", soundnessClaims},
}

// TestPaperClaims derives every result the paper reports, fails on any row
// that disagrees with the paper, and holds RESULTS.md to what this run
// writes (go test -run TestPaperClaims -update . rewrites it).
func TestPaperClaims(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Paper claims against this repository\n\n" +
		"Generated by `go test -run TestPaperClaims -update .`; do not edit by hand. Each row is one claim:\n" +
		"where the paper makes it, what the paper says (— for a claim the repository makes on its own),\n" +
		"what the repository derives, the verdict, and the function that derives it. Latencies are\n" +
		"simulated nanoseconds.\n")
	for _, s := range paperClaims {
		fmt.Fprintf(&b, "\n## %s\n\n| Where | Paper | Repository | Verdict | Checked by |\n|---|---|---|---|---|\n", s.title)
		for _, c := range s.rows(t) {
			verdict := map[bool]string{true: "agree", false: "**DISAGREE**"}[c.agree]
			if c.paper == "—" {
				verdict = map[bool]string{true: "holds", false: "**FAILS**"}[c.agree]
			}
			if !c.agree {
				t.Errorf("%s, %s: paper %q, repository %q", s.title, c.where, c.paper, c.repo)
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", c.where, c.paper, c.repo, verdict, c.check)
		}
	}
	golden.Check(t, "RESULTS.md", b.String())
}

// How litmusClaims turns a corpus file's verdicts into rows.
const (
	paperRows = iota // a row per stated verdict: the paper's beside the model's
	ownRows          // a row per stated verdict, a claim of the repository's own
	traceRows        // a row per trace: the model's verdict under every variant
)

// litmusClaims renders the traces of internal/litmus/testdata/file, each
// in the paper's notation behind its name:, with every verdict from
// litmus.Check.
func litmusClaims(file string, rows int) func(*testing.T) []claim {
	return func(t *testing.T) []claim {
		raw, err := os.ReadFile("internal/litmus/testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		script, err := litmus.ParseScript(string(raw))
		if err != nil {
			t.Fatal(err)
		}
		const check = "`litmus.Check` → `explore.Allows`"
		verdicts, _ := litmus.Check(script)
		var out []claim
		for i, tr := range script.Traces {
			where := "`" + (&explore.Separator{Trace: tr.Labels}).Pretty(script.Topo) + "`"
			if tr.Name != "" {
				where = "(" + tr.Name + ") " + where
			}
			if rows == traceRows {
				var got, want []string
				ok := true
				for _, v := range verdicts[i] {
					got = append(got, fmt.Sprintf("%v %s", v.Variant, litmus.Mark(v.Allowed)))
					if v.Stated {
						want = append(want, fmt.Sprintf("%v %s", v.Variant, litmus.Mark(v.Want)))
					}
					ok = ok && !v.Violated
				}
				out = append(out, claim{where, "—", fmt.Sprintf("%s; expected %s", strings.Join(got, " · "), strings.Join(want, " · ")), ok, check})
				continue
			}
			for _, v := range verdicts[i] {
				if !v.Stated {
					continue
				}
				c := claim{where + " under " + v.Variant.String(), litmus.Mark(v.Want), litmus.Mark(v.Allowed), !v.Violated, check}
				if rows == ownRows {
					c.paper, c.repo = "—", fmt.Sprintf("%s, expected %s", c.repo, c.paper)
				}
				out = append(out, c)
			}
		}
		return out
	}
}

func latticeClaims(*testing.T) []claim {
	topo := core.NewTopology()
	m1 := topo.AddMachine("M1", core.NonVolatile)
	m2 := topo.AddMachine("M2", core.Volatile)
	topo.AddLoc("x", m1)
	topo.AddLoc("y", m2)
	var rows []claim
	for _, p := range []struct {
		allowed, forbidden core.Variant
		separated          bool
		paper              string
	}{
		{core.Base, core.PSN, true, "CXL0-PSN is stricter than CXL0"},
		{core.Base, core.LWB, true, "CXL0-LWB is stricter than CXL0"},
		{core.PSN, core.LWB, true, "CXL0-PSN and CXL0-LWB are incomparable"},
		{core.LWB, core.PSN, true, "CXL0-PSN and CXL0-LWB are incomparable"},
		{core.PSN, core.Base, false, "CXL0-PSN refines CXL0"},
		{core.LWB, core.Base, false, "CXL0-LWB refines CXL0"},
	} {
		repo := "no trace in the searched family"
		sep := explore.FindSeparator(topo, p.allowed, p.forbidden)
		if sep != nil {
			repo = "`" + sep.Pretty(topo) + "`"
		}
		rows = append(rows, claim{
			where: fmt.Sprintf("allowed by %v, forbidden by %v", p.allowed, p.forbidden),
			paper: p.paper, repo: repo, agree: (sep != nil) == p.separated,
			check: "`explore.FindSeparator`",
		})
	}
	return rows
}

func motivatingClaims(*testing.T) []claim {
	var rows []claim
	for _, r := range []struct {
		where  string
		store  core.Op
		rflush bool
		holds  bool
	}{
		{"x=1 as LStore (legacy code)", core.OpLStore, false, false},
		{"x=1 as MStore", core.OpMStore, false, true},
		{"x=1 as LStore + RFlush(x)", core.OpLStore, true, true},
	} {
		say := map[bool]string{true: "assertion holds", false: "assertion may fail"}
		holds := litmus.MotivatingAssertionHolds(r.store, r.rflush)
		rows = append(rows, claim{r.where, say[r.holds], say[holds], holds == r.holds, "`litmus.MotivatingAssertionHolds`"})
	}
	return rows
}

func propositionClaims(*testing.T) []claim {
	topo := core.NewTopology()
	m0 := topo.AddMachine("m1", core.NonVolatile)
	m1 := topo.AddMachine("m2", core.NonVolatile)
	x := topo.AddLoc("x", m0)
	topo.AddLoc("y", m1)
	s := core.NewState(topo)
	s.SetCache(m1, x, 1)
	mstore := explore.ReachVia(s, core.Base, core.MStoreL(m1, x, 1))
	rstore := explore.ReachVia(s, core.Base, core.RStoreL(m1, x, 1))
	ok := explore.Subset(mstore, rstore)
	return []claim{{
		where: "(3) MStore is stronger than RStore, from a state where m2 caches x=1",
		paper: "reach(MStore) ⊆ reach(RStore)",
		repo:  map[bool]string{true: "⊆ holds", false: "⊄"}[ok], agree: ok,
		check: "`explore.ReachVia`, `explore.Subset`; all eight items over every two-machine state: `explore.TestProposition1Exhaustive`",
	}}
}

func availabilityClaims(*testing.T) []claim {
	var noncoherent []core.Op
	for _, op := range core.AllOps {
		if op != core.OpMStore && op != core.OpLoad && op != core.OpMRMW {
			noncoherent = append(noncoherent, op)
		}
	}
	remoteRMW := []core.Op{core.OpRRMW, core.OpMRMW}
	// The primitives §4 excludes per configuration and role.
	paper := []struct {
		setup    core.Setup
		role     core.NodeRole
		excluded []core.Op
	}{
		{core.FullCXL0, core.RoleHost, nil},
		{core.HostDevicePair, core.RoleHost, append([]core.Op{core.OpRStore, core.OpLFlush}, remoteRMW...)},
		{core.HostDevicePair, core.RoleDevice, append([]core.Op{core.OpLFlush}, remoteRMW...)},
		{core.PartitionedPool, core.RoleHost, append([]core.Op{core.OpRStore}, remoteRMW...)},
		{core.SharedPoolCoherent, core.RoleHost, append([]core.Op{core.OpRStore, core.OpLFlush}, remoteRMW...)},
		{core.SharedPoolNonCoherent, core.RoleHost, noncoherent},
	}
	list := func(ops []core.Op) string {
		if len(ops) == 0 {
			return "none excluded"
		}
		names := make([]string, len(ops))
		for i, op := range ops {
			names[i] = op.String()
		}
		return "excludes " + strings.Join(names, ", ")
	}
	var rows []claim
	for _, p := range paper {
		var excluded []core.Op
		for _, op := range core.AllOps {
			if !p.setup.Available(p.role, op) {
				excluded = append(excluded, op)
			}
		}
		rows = append(rows, claim{fmt.Sprintf("%v, %v", p.setup, p.role), list(p.excluded), list(excluded),
			slices.Equal(excluded, p.excluded), "`core.Setup.Available`"})
	}
	return rows
}

func table1Claims(*testing.T) []claim {
	paper := cxlsim.PaperTable1()
	var rows []claim
	for _, c := range cxlsim.GenerateTable1() {
		want, filled := paper[c.CellKey()]
		show := func(ok bool, seqs []string) string {
			if !ok {
				return "???"
			}
			return strings.Join(seqs, ", ")
		}
		rows = append(rows, claim{
			where: fmt.Sprintf("%v %v → %v (%s)", c.Node, c.Prim, c.Target, cxlsim.OperationName(c.Node, c.Prim)),
			paper: show(filled, want), repo: show(c.Available, c.Observed),
			agree: filled == c.Available && slices.Equal(want, c.Observed),
			check: "`cxlsim.GenerateTable1` against `cxlsim.PaperTable1`",
		})
	}
	return rows
}

func figure5Claims(*testing.T) []claim {
	var rows []claim
	for _, c := range latency.Figure5(latency.NewModel(), 1000) {
		host := c.Class == latency.HostToHM || c.Class == latency.HostToHDM
		paperNM := c.Prim == cxlsim.PLFlush || (c.Prim == cxlsim.PRStore && host)
		r := claim{where: fmt.Sprintf("%v · %v", c.Class, c.Prim), paper: "measured", repo: "n/m",
			agree: c.Measurable != paperNM, check: "`latency.Figure5`; a bar lies on the figure's 0–600 ns axis"}
		if paperNM {
			r.paper = "n/m"
		}
		if c.Measurable {
			r.repo = fmt.Sprintf("%.0f ns", c.MedianNS)
			r.agree = r.agree && c.MedianNS > 0 && c.MedianNS <= 600
		}
		rows = append(rows, r)
	}
	return rows
}

func ratioClaims(*testing.T) []claim {
	var rows []claim
	for _, r := range latency.Figure5Ratios(latency.NewModel()) {
		rows = append(rows, claim{r.Name, fmt.Sprintf("%.2f×", r.PaperSays), fmt.Sprintf("%.2f×", r.Value),
			math.Abs(r.Value-r.PaperSays) <= 0.15*r.PaperSays, "`latency.Figure5Ratios`, within 15 %"})
	}
	return rows
}

func projectionClaims(*testing.T) []claim {
	var rows []claim
	prev := math.Inf(1)
	for _, p := range latency.Projection() {
		rows = append(rows, claim{p.Generation.Name, "—",
			fmt.Sprintf("host read: local %.0f ns, remote %.0f ns, %.2f×", p.HostLocalRead, p.HostRemoteRead, p.RemoteOverLocal),
			p.RemoteOverLocal > 1 && p.RemoteOverLocal <= prev, "`latency.Projection`; the gap shrinks but stays above 1×"})
		prev = p.RemoteOverLocal
	}
	return rows
}

func flitbenchClaims(t *testing.T) []claim {
	var rows []claim
	for _, pl := range []flitbench.Placement{flitbench.Remote, flitbench.Local} {
		for _, w := range flitbench.Workloads {
			cost := map[flit.Strategy]float64{}
			var cells []string
			for _, s := range flit.Strategies {
				st, err := flitbench.Run(flitbench.Config{Workload: w, Strategy: s, Placement: pl, Ops: 2000, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				cost[s] = st.SimNSPerOp
				cells = append(cells, fmt.Sprintf("%v %.0f", s, st.SimNSPerOp))
			}
			ok := cost[flit.CXL0FliTOpt] <= cost[flit.CXL0FliT]*1.02
			for _, s := range flit.Strategies {
				ok = ok && (!s.Correct() || cost[s] > cost[flit.NoPersist])
			}
			rows = append(rows, claim{fmt.Sprintf("%v · %v", pl, w), "—", strings.Join(cells, " · "), ok,
				"`flitbench.Run`; durability costs more than no-persist, and the owner-local LFlush never loses by > 2 %"})
		}
	}
	return rows
}

func ablationClaims(t *testing.T) []claim {
	var rows []claim
	for _, s := range []flit.Strategy{flit.CXL0FliT, flit.MStoreAll, flit.NoPersist} {
		pts, err := flitbench.EvictionAblation([]flit.Strategy{s}, []int{0, 64, 8, 1}, 2000)
		if err != nil {
			t.Fatal(err)
		}
		var cells []string
		for _, p := range pts {
			cells = append(cells, fmt.Sprintf("every %d: %.0f", p.EvictEvery, p.SimNSPerOp))
		}
		calm, stormy := pts[0].SimNSPerOp, pts[3].SimNSPerOp
		rows = append(rows, claim{fmt.Sprintf("eviction pressure, queue-pingpong remote, %v", s), "—",
			strings.Join(cells, " · "), (s.Correct() && stormy <= 1.5*calm) || (!s.Correct() && stormy > 2*calm),
			"`flitbench.EvictionAblation`; sound strategies move < 1.5×, no-persist degrades > 2×"})
	}
	for _, s := range []flit.Strategy{flit.CXL0FliT, flit.CXL0FliTOpt} {
		pts, err := flitbench.PlacementMixAblation([]flit.Strategy{s}, []int{0, 25, 50, 75, 100}, 2000)
		if err != nil {
			t.Fatal(err)
		}
		var cells []string
		ok := true
		for i, p := range pts {
			cells = append(cells, fmt.Sprintf("%d %% local: %.0f", p.LocalPercent, p.SimNSPerOp))
			ok = ok && (i == 0 || p.SimNSPerOp < pts[i-1].SimNSPerOp)
		}
		rows = append(rows, claim{fmt.Sprintf("local-access fraction, register mix, %v", s), "—",
			strings.Join(cells, " · "), ok, "`flitbench.PlacementMixAblation`; cost falls as locality grows"})
	}
	table, err := flitbench.CounterTableAblation([]int{1, 8, 64, 1024}, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range table {
		rows = append(rows, claim{fmt.Sprintf("FliT counter table of %d, 128 reads", p.TableSize), "—",
			fmt.Sprintf("%.0f ns/read, %d/128 spurious helping flushes", p.SimNSPerOp, p.HelpedLoads),
			i == 0 || (p.HelpedLoads <= table[i-1].HelpedLoads && p.SimNSPerOp <= table[i-1].SimNSPerOp),
			"`flitbench.CounterTableAblation`; false sharing falls as the table grows"})
	}
	return rows
}

// soundnessClaims prints n/n per cell for the sound strategies. For the
// unsound ones it says only whether any run violated durable
// linearizability: their per-cell counts follow the host scheduler.
func soundnessClaims(t *testing.T) []claim {
	var rows []claim
	for _, strat := range flit.Strategies {
		violated := false
		for _, structure := range crashtest.Structures {
			var cells []string
			clean := true
			for _, mode := range crashtest.CrashModes {
				ok, bad, _, err := crashtest.Sweep(crashtest.Options{
					Structure: structure, Strategy: strat, Crash: mode, Workers: 3, OpsPerWorker: 6,
				}, 8)
				if err != nil {
					t.Fatal(err)
				}
				cells = append(cells, fmt.Sprintf("%v %d/%d", mode, ok, ok+bad))
				clean, violated = clean && bad == 0, violated || bad > 0
			}
			if strat.Correct() {
				rows = append(rows, claim{fmt.Sprintf("%v · %v", strat, structure), "durably linearizable",
					strings.Join(cells, " · "), clean, "`crashtest.Sweep`"})
			}
		}
		if !strat.Correct() {
			rows = append(rows, claim{fmt.Sprintf("%v · every structure and crash mode", strat), "not durably linearizable",
				"violation found: " + map[bool]string{true: "yes", false: "no"}[violated], violated, "`crashtest.Sweep`"})
		}
	}
	return rows
}
