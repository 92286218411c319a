package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cxl0/internal/golden"
	"cxl0/internal/kv"
)

// reduced is the in-process matrix: every row class runs, in ~4 s.
var reduced = strings.Fields("-ops 300 -keys 80 -crash-every 120 -rebalance-every 100 -shards 1,4 -clusters 1,2")

// schema is an artifact's JSON shape: the config and headline key sets
// and the union of the per-result keys.
type schema struct {
	Config, Headline, Results []string
}

// decoded is an artifact with its objects left open, so key sets can be
// read off without naming a field.
type decoded struct {
	Config   map[string]json.RawMessage   `json:"config"`
	Headline map[string]json.RawMessage   `json:"headline"`
	Results  []map[string]json.RawMessage `json:"results"`
}

func decode(t *testing.T, blob []byte) decoded {
	t.Helper()
	var d decoded
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func (d decoded) schema() schema {
	var results []string
	for _, r := range d.Results {
		for k := range r {
			if !slices.Contains(results, k) {
				results = append(results, k)
			}
		}
	}
	slices.Sort(results)
	return schema{sortedKeys(d.Config), sortedKeys(d.Headline), results}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func committed(t *testing.T) ([]byte, benchFile) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCH_kv.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchFile
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	return blob, file
}

// TestReducedMatrix is the bench CLI's contract, held on a reduced
// matrix: same JSON shape as the committed artifact, and every row class
// in the table alive — its rows ran, every headline key it feeds is
// populated, and its own liveness predicate holds.
func TestReducedMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("the reduced matrix takes ~4 s, ten times that under -race; the flag and artifact tests still run")
	}
	m, _, err := parseFlags(reduced)
	if err != nil {
		t.Fatal(err)
	}
	file, rows, err := bench(m, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	got := decode(t, blob)

	// A reduced run must produce the same JSON shape as the committed
	// artifact: catches schema drift without a full rerun.
	committedBlob, _ := committed(t)
	if want := decode(t, committedBlob).schema(); !reflect.DeepEqual(got.schema(), want) {
		t.Errorf("reduced run's schema differs from BENCH_kv.json's:\n got %+v\nwant %+v", got.schema(), want)
	}
	// Every row — not just some — carries the skew, compaction and
	// pooling fields.
	for i, r := range got.Results {
		for _, k := range []string{"max_mean_busy", "rebalance_every", "migrations", "migrated_records", "compactions", "reclaimed_slots", "clusters"} {
			if _, ok := r[k]; !ok {
				t.Errorf("result %d lacks %q", i, k)
			}
		}
	}
	// The config echoes the axes the sweeps ran over.
	if c := file.Config; !slices.Equal(c.Clusters, []int{1, 2}) || !slices.Equal(c.PipelineDepths, []int{1, 2, 4}) || c.Cache <= 0 {
		t.Errorf("config echo: clusters %v, pipeline depths %v, cache %d", c.Clusters, c.PipelineDepths, c.Cache)
	}

	for _, rc := range classes {
		var mine []row
		for _, r := range rows {
			if r.class == rc {
				mine = append(mine, r)
			}
		}
		if len(mine) == 0 {
			t.Errorf("%s: no rows ran", rc.name)
		}
		for _, key := range rc.feeds {
			if v := string(got.Headline[key]); v == "" || v == "0" || v == `""` || v == "null" || v == "[]" {
				t.Errorf("%s: headline key %q not populated (%q)", rc.name, key, v)
			}
		}
		if rc.live == nil {
			t.Errorf("%s: row class without a liveness predicate", rc.name)
		} else if !rc.live(mine, &file.Headline) {
			t.Errorf("%s: not live over %d rows; headline %s", rc.name, len(mine), blob[bytes.Index(blob, []byte(`"headline"`)):])
		}
	}
}

// TestTableCoversHeadline pins the table to the artifact: between them
// the classes feed exactly the committed headline's keys, so a class (or
// the headline it feeds) dropped from the table fails here.
func TestTableCoversHeadline(t *testing.T) {
	var fed []string
	for _, rc := range classes {
		if rc.cell == nil == (rc.sweep == nil) {
			t.Errorf("%s: want exactly one of cell and sweep", rc.name)
		}
		fed = append(fed, rc.feeds...)
	}
	slices.Sort(fed)
	blob, _ := committed(t)
	if want := sortedKeys(decode(t, blob).Headline); !slices.Equal(fed, want) {
		t.Errorf("classes feed %v\nBENCH_kv.json's headline has %v", fed, want)
	}
}

// TestArtifactCurrent runs the command on the default matrix in-process
// and holds BENCH_kv.json to its output byte for byte; -update rewrites
// the file:
//
//	go test ./cmd/cxl0-bench -run ArtifactCurrent -update
func TestArtifactCurrent(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_kv.json")
	if err := run([]string{"-out", out}, io.Discard); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("..", "..", "BENCH_kv.json"), string(blob))
}

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		name, args string
		is         error  // errors.Is target, if any
		want       string // error substring; "" = must parse
	}{
		{name: "defaults", args: ""},
		{name: "whitespace is trimmed", args: "-workloads=A,\tE -strategies=group,\tranged -variants=base,\tPSN -shards=1,\t4"},
		{name: "unknown strategy", args: "-strategies turbo", is: kv.ErrUnknownStrategy, want: `"turbo"`},
		{name: "duplicate strategy", args: "-strategies group,ranged,group", want: `-strategies: duplicate "group"`},
		{name: "duplicate strategy by case", args: "-strategies group,GROUP", want: `duplicate "GROUP" repeats "group"`},
		{name: "duplicate workload", args: "-workloads A,A", want: `-workloads: duplicate "A"`},
		{name: "duplicate workload by case", args: "-workloads A,a", want: `-workloads: duplicate "a"`},
		{name: "duplicate variant", args: "-variants base,base", want: `-variants: duplicate "base"`},
		{name: "duplicate shard count", args: "-shards 1,4,1", want: `-shards: duplicate "1"`},
		{name: "duplicate cluster count", args: "-clusters 2,2", want: `-clusters: duplicate "2"`},
		{name: "duplicate pipeline depth", args: "-pipeline-depths 1,2,2", want: `-pipeline-depths: duplicate "2"`},
		{name: "unknown workload", args: "-workloads Z", want: `unknown YCSB workload "Z"`},
		{name: "unknown variant", args: "-variants cxl0", want: `unknown variant "cxl0"`},
		{name: "empty element", args: "-shards 1,,4", want: `-shards: bad count ""`},
		{name: "empty list", args: "-workloads=", want: `-workloads: `},
		{name: "non-positive count", args: "-clusters 0", want: `-clusters: bad count "0"`},
		{name: "every bad list is reported", args: "-strategies turbo -shards x", is: kv.ErrUnknownStrategy, want: `-shards: bad count "x"`},
		{name: "no keys", args: "-keys 0", want: `-keys: 0 is below 1`},
		{name: "batch below 1", args: "-batch 0", want: `-batch: 0 is below 1`},
		{name: "negative crash period", args: "-crash-every -1", want: `-crash-every: -1 is below 0`},
		{name: "negative eviction period", args: "-evict-every -3", want: `-evict-every: -3 is below 0`},
		{name: "negative rebalance period", args: "-rebalance-every -1", want: `-rebalance-every: -1 is below 0`},
		{name: "negative cache", args: "-cache -256", want: `-cache: -256 is below 0`},
		{name: "compaction threshold above 1", args: "-compact-at-fill 2", want: `-compact-at-fill: 2 is outside [0, 1]`},
		{name: "negative compaction threshold", args: "-compact-at-fill -0.5", want: `-compact-at-fill: -0.5 is outside [0, 1]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Split on single spaces only: the tabs above stay inside
			// their list values.
			var args []string
			if tc.args != "" {
				args = strings.Split(tc.args, " ")
			}
			m, _, err := parseFlags(args)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				if slices.ContainsFunc(slices.Concat(m.Workloads, m.Strategies, m.Variants), func(s string) bool { return s != strings.TrimSpace(s) }) {
					t.Errorf("config echoes untrimmed names: %q %q %q", m.Workloads, m.Strategies, m.Variants)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) || (tc.is != nil && !errors.Is(err, tc.is)) {
				t.Errorf("got error %v, want one containing %q (is %v)", err, tc.want, tc.is)
			}
		})
	}
}

// TestRun drives the command end to end on a two-row matrix: the table
// on stdout, the artifact on disk, and a bad flag as an error, not an
// exit.
func TestRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	args := strings.Fields("-ops 40 -keys 20 -workloads A -strategies gpf,group -shards 1 -clusters 1 -variants base -pipeline-depths 1 -cache 0 -compact-at-fill 0 -out " + out)
	if err := run(args, &stdout); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var file benchFile
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	// Two static rows, then none + four campaign classes per strategy.
	if len(file.Results) != 12 || file.Headline.GroupConfig != "A/1/CXL0" {
		t.Errorf("got %d results, group_config %q", len(file.Results), file.Headline.GroupConfig)
	}
	if s := stdout.String(); !strings.Contains(s, "headline: group commit is") || !strings.HasSuffix(s, "(12 results)\n") {
		t.Errorf("stdout lacks the headline or the wrote line:\n%s", s)
	}
	if err := run([]string{"-strategies", "turbo", "-out", ""}, io.Discard); !errors.Is(err, kv.ErrUnknownStrategy) {
		t.Errorf("run with an unknown strategy: %v", err)
	}
	// -ops 0 used to write an artifact whose config said 0 ops over rows
	// that each ran 1000, with every campaign schedule empty.
	zero := filepath.Join(t.TempDir(), "zero.json")
	args = strings.Fields("-ops 0 -keys 40 -shards 1,2 -clusters 1 -workloads A -strategies group,ranged -variants base -pipeline-depths 1 -cache 0 -out " + zero)
	if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "Ops must be positive") {
		t.Errorf("run with -ops 0: %v, want the Ops error", err)
	}
	if _, err := os.Stat(zero); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("run with -ops 0 left an artifact behind (stat: %v)", err)
	}
}

// TestRunProfiled runs a small matrix with -cpuprofile, -memprofile and
// -mutexprofile and without: the artifacts are byte for byte equal, and
// all three profiles are written. A profile file that cannot be created
// fails the run.
func TestRunProfiled(t *testing.T) {
	dir := t.TempDir()
	args := strings.Fields("-ops 40 -keys 20 -workloads A -strategies group -shards 1 -clusters 1 -variants base -pipeline-depths 1 -cache 8 -compact-at-fill 0")
	plain, profiled := filepath.Join(dir, "plain.json"), filepath.Join(dir, "profiled.json")
	cpu, mem, mutex := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof"), filepath.Join(dir, "mutex.prof")
	if err := run(append(args, "-out", plain), io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-out", profiled, "-cpuprofile", cpu, "-memprofile", mem, "-mutexprofile", mutex), io.Discard); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(profiled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the profiled run wrote a different artifact (%d bytes, %d without the profiles)", len(got), len(want))
	}
	for _, p := range []string{cpu, mem, mutex} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s: %v, %v", filepath.Base(p), fi, err)
		}
	}
	for _, flag := range []string{"-cpuprofile", "-memprofile", "-mutexprofile"} {
		if err := run(append(args, "-out", "", flag, filepath.Join(dir, "no-such-dir", "p.prof")), io.Discard); err == nil {
			t.Errorf("a run whose %s file cannot be created succeeds", flag)
		}
	}
}

// FuzzParseFlags holds the six list flags to parseList's contract: any
// input is parsed or rejected with an error, never a panic; a list that
// is accepted is echoed as its trimmed elements, in order, with no value
// twice; and parsing the echoed lists again gives the same matrix.
func FuzzParseFlags(f *testing.F) {
	f.Add("A,E", "mstore,flush,gpf,group,ranged", "1,4,12", "1,2,4", "base,psn", "1,2,4")
	f.Add("A,E", "mstore,flush,gpf,group,ranged", "1,4", "1,2", "base,psn", "1,2,4")
	f.Add("A,\tb", " group,RANGED", "+1, 04", "2", "base,\tPSN,lwb", "1")
	f.Fuzz(func(t *testing.T, workloads, strategies, shards, clusters, variants, depths string) {
		lists := func(w, s, sh, cl, v, d string) []string {
			return []string{"-workloads=" + w, "-strategies=" + s, "-shards=" + sh, "-clusters=" + cl, "-variants=" + v, "-pipeline-depths=" + d}
		}
		m, _, err := parseFlags(lists(workloads, strategies, shards, clusters, variants, depths))
		if err != nil {
			return
		}
		for _, l := range []struct {
			flag, in string
			echo     []string // trimmed names; counts in decimal
			values   int      // distinct parsed values
			counts   bool
		}{
			{"workloads", workloads, m.Workloads, len(distinct(specNames(m))), false},
			{"strategies", strategies, m.Strategies, len(distinct(m.strategies)), false},
			{"variants", variants, m.Variants, len(distinct(m.variants)), false},
			{"shards", shards, itoas(m.Shards), len(distinct(m.Shards)), true},
			{"clusters", clusters, itoas(m.Clusters), len(distinct(m.Clusters)), true},
			{"pipeline-depths", depths, itoas(m.PipelineDepths), len(distinct(m.PipelineDepths)), true},
		} {
			elems := strings.Split(l.in, ",")
			if len(l.echo) != len(elems) || l.values != len(elems) {
				t.Fatalf("-%s=%q: echoed %q with %d distinct values, want %d", l.flag, l.in, l.echo, l.values, len(elems))
			}
			for i, e := range elems {
				want := strings.TrimSpace(e)
				if l.counts {
					n, _ := strconv.Atoi(want)
					want = strconv.Itoa(n)
				}
				if l.echo[i] != want {
					t.Fatalf("-%s=%q: element %d echoed as %q, want %q", l.flag, l.in, i, l.echo[i], want)
				}
			}
		}
		again, _, err := parseFlags(lists(strings.Join(m.Workloads, ","), strings.Join(m.Strategies, ","),
			strings.Join(itoas(m.Shards), ","), strings.Join(itoas(m.Clusters), ","),
			strings.Join(m.Variants, ","), strings.Join(itoas(m.PipelineDepths), ",")))
		if err != nil {
			t.Fatalf("the echoed lists do not parse: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("the echoed lists parse to a different matrix:\n%+v\nwant\n%+v", again, m)
		}
	})
}

func specNames(m *matrix) []string {
	var out []string
	for _, s := range m.specs {
		out = append(out, s.Name)
	}
	return out
}

func itoas(ns []int) []string {
	var out []string
	for _, n := range ns {
		out = append(out, strconv.Itoa(n))
	}
	return out
}

func distinct[T comparable](xs []T) map[T]bool {
	set := map[T]bool{}
	for _, x := range xs {
		set[x] = true
	}
	return set
}
