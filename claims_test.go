package cxl0bench

import (
	"bytes"
	"encoding/json"
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
	{"The KV service's headline (BENCH_kv.json)", kvClaims},
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

// kvClaims states each claim README.md and docs/ make about the KV
// service's headline in the committed BENCH_kv.json, which
// cmd/cxl0-bench's TestArtifactCurrent holds to a fresh run of the
// default matrix.
func kvClaims(t *testing.T) []claim {
	blob, err := os.ReadFile("BENCH_kv.json")
	if err != nil {
		t.Fatal(err)
	}
	return headlineClaims(t, blob)
}

// headline is BENCH_kv.json's headline object, read key by key through
// field, which records every key it reads.
type headline struct {
	t    *testing.T
	keys map[string]json.RawMessage
	read map[string]bool
}

// field decodes the headline's key into a T and marks the key read.
func field[T any](h *headline, key string) T {
	h.read[key] = true
	var v T
	if err := json.Unmarshal(h.keys[key], &v); err != nil {
		h.t.Fatalf("BENCH_kv.json headline %q: %v", key, err)
	}
	return v
}

// headlineClaims renders one row per claim about the headline of the
// artifact blob, then one row that fails if a headline key is read by no
// row: a key added to the headline arrives with its claim.
func headlineClaims(t *testing.T, blob []byte) []claim {
	var file struct {
		Headline map[string]json.RawMessage `json:"headline"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	h := &headline{t: t, keys: file.Headline, read: map[string]bool{}}
	row := func(where, repo string, holds bool, check string) claim {
		return claim{where, "—", repo, holds, check}
	}
	var rows []claim

	groupSpeedup, groupAt := field[float64](h, "group_vs_gpf_speedup"), field[string](h, "group_config")
	rows = append(rows, row("group commit beats per-op GPF", fmt.Sprintf("%.2f× at %s", groupSpeedup, groupAt),
		groupSpeedup > 1, "`group_vs_gpf_speedup` > 1"))
	rangedSpeedup, rangedAt := field[float64](h, "ranged_vs_group_speedup"), field[string](h, "ranged_config")
	rows = append(rows, row("ranged commit beats group commit at the most shards", fmt.Sprintf("%.2f× at %s", rangedSpeedup, rangedAt),
		rangedSpeedup > 1, "`ranged_vs_group_speedup` > 1"))
	groupGrowth, rangedGrowth := field[float64](h, "group_per_op_cost_growth"), field[float64](h, "ranged_per_op_cost_growth")
	rows = append(rows, row("ranged per-op cost grows less than group's",
		fmt.Sprintf("from the fewest to the most shards: group %.2f×, ranged %.2f×", groupGrowth, rangedGrowth),
		rangedGrowth < groupGrowth, "`ranged_per_op_cost_growth` < `group_per_op_cost_growth`"))

	// Every field of a pipelined row, so that two rows compare equal
	// only if they are identical.
	type pipelined struct {
		Strategy   string  `json:"strategy"`
		Shards     int     `json:"shards"`
		Depth      int     `json:"pipeline_depth"`
		Throughput float64 `json:"throughput_ops_per_sec"`
		Speedup    float64 `json:"speedup_vs_blocking"`
		AckP99NS   float64 `json:"ack_p99_ns"`
		IssueP99NS float64 `json:"issue_p99_ns"`
	}
	// Each row as shards/depth, its speedup over blocking commit and, for
	// group commit, its ack p99.
	var group, ranged []string
	groupFlat, rangedGains := true, false
	groupK2 := map[int]pipelined{}
	for _, p := range field[[]pipelined](h, "pipelined_throughput") {
		at := fmt.Sprintf("%d/K%d %.2f×", p.Shards, p.Depth, p.Speedup)
		switch {
		case p.Strategy == "ranged":
			ranged = append(ranged, at)
			rangedGains = rangedGains || (p.Depth > 1 && p.Speedup > 1)
			continue
		case p.Depth == 2:
			groupK2[p.Shards] = p
		default:
			twin, ok := groupK2[p.Shards]
			twin.Depth = p.Depth
			groupFlat = groupFlat && ok && twin == p
		}
		group = append(group, fmt.Sprintf("%s (ack p99 %.0f µs)", at, p.AckP99NS/1000))
	}
	rows = append(rows, row("a deeper pipeline adds nothing to group commit", "over blocking, shards/depth: "+strings.Join(group, " · "),
		groupFlat && len(groupK2) > 0, "`pipelined_throughput`: each group K>2 row equals its K=2 row"))
	rows = append(rows, row("ranged commit gains from the pipeline", "over blocking, shards/depth: "+strings.Join(ranged, " · "),
		rangedGains, "`pipelined_throughput`: some ranged K>1 row beats blocking commit"))

	type readCache struct {
		Workload  string  `json:"workload"`
		Clusters  int     `json:"clusters"`
		HitRate   float64 `json:"cache_hit_rate"`
		Reduction float64 `json:"read_latency_reduction"`
	}
	var cached []string
	cuts := true
	for _, c := range field[[]readCache](h, "read_cache") {
		cached = append(cached, fmt.Sprintf("%s %dcl: %.0f %% hits, read −%.0f %%", c.Workload, c.Clusters, 100*c.HitRate, 100*c.Reduction))
		cuts = cuts && c.HitRate > 0.5 && c.Reduction > 0
	}
	rows = append(rows, row("every read-cache row serves most reads and cuts read latency", strings.Join(cached, " · "),
		cuts && len(cached) > 0, "`read_cache`: every hit rate > 1/2, every read-latency reduction > 0"))

	static, rebalanced := field[float64](h, "static_max_mean_busy"), field[float64](h, "rebalanced_max_mean_busy")
	imbalanceAt := field[string](h, "imbalance_config")
	rows = append(rows, row("rebalancing cuts max/mean busy", fmt.Sprintf("%.2f× → %.2f× at %s", static, rebalanced, imbalanceAt),
		rebalanced < static, "`rebalanced_max_mean_busy` < `static_max_mean_busy`"))
	rebalanceSpeedup := field[float64](h, "rebalance_speedup")
	rows = append(rows, row("rebalancing raises throughput", fmt.Sprintf("%.2f× at %s", rebalanceSpeedup, imbalanceAt),
		rebalanceSpeedup > 1, "`rebalance_speedup` > 1"))

	type pooled struct {
		Clusters    int     `json:"clusters"`
		MeanSpeedup float64 `json:"mean_speedup"`
		BestSpeedup float64 `json:"best_speedup"`
		BestConfig  string  `json:"best_config"`
	}
	var scaling []string
	scales := true
	for _, p := range field[[]pooled](h, "pooled_throughput_scaling") {
		scaling = append(scaling, fmt.Sprintf("%d clusters: mean %.2f×, best %.2f× at %s", p.Clusters, p.MeanSpeedup, p.BestSpeedup, p.BestConfig))
		scales = scales && p.MeanSpeedup > 1 && p.BestSpeedup > float64(p.Clusters)
	}
	rows = append(rows, row("pooling beats one cluster at every count, the best pairing super-linearly", strings.Join(scaling, " · "),
		scales && len(scaling) > 0, "`pooled_throughput_scaling`: every mean speedup > 1, every best speedup > the cluster count"))
	best, bestAt := field[float64](h, "best_throughput_ops_per_sec"), field[string](h, "best_config")
	rows = append(rows, row("the best configuration is pooled", fmt.Sprintf("%.1f M ops/s at %s", best/1e6, bestAt),
		strings.Contains(bestAt, "clusters"), "`best_config` runs on more than one cluster"))

	compaction := field[struct {
		Compactions  int     `json:"compactions"`
		Reclaimed    int     `json:"reclaimed_slots"`
		OverCapacity float64 `json:"appends_over_capacity"`
		VsUncapped   float64 `json:"throughput_vs_uncapped"`
		Config       string  `json:"config"`
	}](h, "compaction")
	rows = append(rows, row("compaction sustains more than the log's capacity",
		fmt.Sprintf("%.2f× the capacity in appends at %.2f× uncapped throughput, %d compactions reclaiming %d slots, at %s",
			compaction.OverCapacity, compaction.VsUncapped, compaction.Compactions, compaction.Reclaimed, compaction.Config),
		compaction.OverCapacity > 1, "`compaction.appends_over_capacity` > 1"))

	campaign := field[struct {
		Config  string `json:"config"`
		Classes []struct {
			Campaign          string  `json:"campaign"`
			MeanAvailability  float64 `json:"mean_availability"`
			WorstAvailability float64 `json:"worst_availability"`
			WorstStrategy     string  `json:"worst_availability_strategy"`
		} `json:"classes"`
	}](h, "fault_campaign")
	partitioned, isolated := "no partitioned class", false
	for _, c := range campaign.Classes {
		if c.Campaign == "partitioned" {
			partitioned = fmt.Sprintf("%.3f under %s (mean %.3f) at %s", c.WorstAvailability, c.WorstStrategy, c.MeanAvailability, campaign.Config)
			isolated = c.WorstAvailability < 1 && (c.WorstStrategy == "gpf" || c.WorstStrategy == "group")
		}
	}
	rows = append(rows, row("partitioned availability is worst under a GPF-based strategy", partitioned, isolated,
		"`fault_campaign`: the partitioned class's worst availability is < 1, under `gpf` or `group`"))

	var unread []string
	for key := range h.keys {
		if !h.read[key] {
			unread = append(unread, key)
		}
	}
	slices.Sort(unread)
	covered := fmt.Sprintf("all %d keys", len(h.keys))
	if len(unread) > 0 {
		covered = "read by no row: " + strings.Join(unread, ", ")
	}
	return append(rows, row("every headline key is read by a row above", covered, len(unread) == 0,
		"the keys `field` read against the headline's keys"))
}

// TestKVClaimsReadEveryHeadlineKey adds a key to a copy of the committed
// artifact's headline: the last row must fail and name it.
func TestKVClaimsReadEveryHeadlineKey(t *testing.T) {
	blob, err := os.ReadFile("BENCH_kv.json")
	if err != nil {
		t.Fatal(err)
	}
	const head = `"headline": {`
	if !bytes.Contains(blob, []byte(head)) {
		t.Fatalf("BENCH_kv.json has no %s", head)
	}
	rows := headlineClaims(t, bytes.Replace(blob, []byte(head), []byte(head+`"scratch_claim": 1.5,`), 1))
	if last := rows[len(rows)-1]; last.agree || !strings.Contains(last.repo, "scratch_claim") {
		t.Errorf("an unread headline key renders %q, %v", last.repo, last.agree)
	}
	for _, c := range rows[:len(rows)-1] {
		if !c.agree {
			t.Errorf("%s: %s fails on the copy", c.where, c.repo)
		}
	}
}
