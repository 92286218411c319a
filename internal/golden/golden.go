// Package golden holds a rendered artifact to its committed file: the
// one check behind RESULTS.md, BENCH_kv.json and every testdata/*.golden
// digest file. Only tests, and the test helpers of internal/kv/kvtest,
// import it, so no command grows its flag.
//
// A run that means to move an artifact rewrites it with -update, one
// package at a time (a package whose tests do not import golden has no
// such flag):
//
//	go test ./internal/flitbench -run Golden -update
package golden

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite each committed artifact this package's tests check from this run")

// Updating reports whether -update is set: a check rewrites its file
// instead of comparing against it.
func Updating() bool { return *update }

// Check holds got to the file at path, or writes got there under -update.
// A difference in a digest file fails t with every case that changed,
// appeared or went, and their counts, so an intended regeneration shows
// its whole scope and an unintended move cannot hide behind it. Any
// other difference fails t with the first line that differs and, if the
// number of lines changed, both counts. It reports through t.Error only,
// so the caller's test goes on.
func Check(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Error(err)
		}
		return
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	if moved := movedCases(string(doc), got); moved != "" {
		t.Error(fmt.Sprintf("%s differs from this run (rerun with -update if intended): %s", path, moved))
	} else if n, diff := FirstDifference(string(doc), got, "committed", "this run"); n > 0 {
		t.Error(fmt.Sprintf("%s differs from this run from line %d (rerun with -update if intended):\n%s", path, n, diff))
	}
}

// movedCases compares two digest files case by case. It returns how
// many cases changed, were added and were removed, then one line per
// such case, in file order; "" when either side is not a digest file or
// no case moved.
func movedCases(committed, got string) string {
	was, wasNames, ok1 := parseDigests(committed)
	now, nowNames, ok2 := parseDigests(got)
	if !ok1 || !ok2 {
		return ""
	}
	var lines []string
	count := map[string]int{}
	note := func(what, name string) {
		count[what]++
		lines = append(lines, fmt.Sprintf("\n%-8s %s", what+":", name))
	}
	for _, name := range nowNames {
		if d, ok := was[name]; !ok {
			note("added", name)
		} else if d != now[name] {
			note("changed", name)
		}
	}
	for _, name := range wasNames {
		if _, ok := now[name]; !ok {
			note("removed", name)
		}
	}
	if len(lines) == 0 {
		return ""
	}
	return fmt.Sprintf("%d cases moved (%d changed, %d added, %d removed):%s",
		len(lines), count["changed"], count["added"], count["removed"], strings.Join(lines, ""))
}

// parseDigests reads a file Digests rendered: each case's digest by
// name, and the names in file order. ok is false for any other file.
func parseDigests(doc string) (digest map[string]string, names []string, ok bool) {
	body, ok := strings.CutPrefix(doc, header)
	if !ok {
		return nil, nil, false
	}
	digest = map[string]string{}
	for _, l := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		i := strings.LastIndexByte(l, ' ')
		if i < 0 {
			return nil, nil, false
		}
		digest[l[:i]] = l[i+1:]
		names = append(names, l[:i])
	}
	return digest, names, true
}

// FirstDifference compares two renderings of one artifact line by line.
// It returns 0 and "" when they are equal; otherwise the number of the
// first line that differs and a report of it: each side's line there
// under its label, and both line counts if they differ.
func FirstDifference(a, b, labelA, labelB string) (int, string) {
	if a == b {
		return 0, ""
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	i := 0
	for i < len(al) && i < len(bl) && al[i] == bl[i] {
		i++
	}
	w := max(len(labelA), len(labelB)) + 1
	report := fmt.Sprintf("%-*s %s\n%-*s %s", w, labelA+":", line(al, i), w, labelB+":", line(bl, i))
	if len(al) != len(bl) {
		report += fmt.Sprintf("\n%s holds %d lines, %s %d", labelA, len(al), labelB, len(bl))
	}
	return i + 1, report
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return fmt.Sprintf("%q", lines[i])
	}
	return "<end of file>"
}

// Case is one named case of a digest file and the text it pins.
type Case struct{ Name, Text string }

// header opens every digest file Digests renders.
const header = "# SHA-256 per case; regenerate with -update, do not edit by hand.\n"

// Digests renders a digest file: the header, then one "name digest" line
// per case, in case order, the digest the SHA-256 of the case's text.
func Digests(cases []Case) string {
	var b strings.Builder
	b.WriteString(header)
	for _, c := range cases {
		fmt.Fprintf(&b, "%s %x\n", c.Name, sha256.Sum256([]byte(c.Text)))
	}
	return b.String()
}
