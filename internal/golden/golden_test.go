package golden

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fakeTB records what Check reports.
type fakeTB struct {
	testing.TB
	msgs []string
}

func (f *fakeTB) Helper() {}

func (f *fakeTB) Error(args ...any) { f.msgs = append(f.msgs, fmt.Sprint(args...)) }

func check(path, got string) *fakeTB {
	f := &fakeTB{}
	Check(f, path, got)
	return f
}

func withUpdate(t *testing.T, on bool) {
	was := *update
	*update = on
	t.Cleanup(func() { *update = was })
}

func TestCheckReportsFirstDifferenceAndLength(t *testing.T) {
	withUpdate(t, false)
	const committed = "a\nb\nc\n"
	path := filepath.Join(t.TempDir(), "artifact")
	if err := os.WriteFile(path, []byte(committed), 0o644); err != nil {
		t.Fatal(err)
	}
	msg := func(line int, committed, run, length string) string {
		return fmt.Sprintf("%s differs from this run from line %d (rerun with -update if intended):\ncommitted: %s\nthis run:  %s%s",
			path, line, committed, run, length)
	}
	// Each case also goes through FirstDifference under other labels, as
	// kvtest's replay comparison calls it.
	for _, tc := range []struct {
		got, want string
		line      int
		report    string
	}{
		{"a\nb\nc\n", "", 0, ""},
		{"a\nB\nc\n", msg(2, `"b"`, `"B"`, ""), 2, "run 1: \"b\"\nrun 2: \"B\""},
		{"a\nb\nc\nd\n", msg(4, `""`, `"d"`, "\ncommitted holds 4 lines, this run 5"), 4,
			"run 1: \"\"\nrun 2: \"d\"\nrun 1 holds 4 lines, run 2 5"},
		{"a\nb\nc", msg(4, `""`, "<end of file>", "\ncommitted holds 4 lines, this run 3"), 4,
			"run 1: \"\"\nrun 2: <end of file>\nrun 1 holds 4 lines, run 2 3"},
	} {
		if got := strings.Join(check(path, tc.got).msgs, "\n"); got != tc.want {
			t.Errorf("checking %q:\n%s\nwant:\n%s", tc.got, got, tc.want)
		}
		if line, report := FirstDifference(committed, tc.got, "run 1", "run 2"); line != tc.line || report != tc.report {
			t.Errorf("FirstDifference of %q: line %d\n%s\nwant line %d\n%s", tc.got, line, report, tc.line, tc.report)
		}
	}
	if f := check(filepath.Join(t.TempDir(), "missing"), "x"); len(f.msgs) == 0 {
		t.Error("a missing file passed")
	}
}

// TestCheckNamesEveryMovedCase: on a digest file, the report names each
// case that changed, appeared or went, with the counts — not only the
// first line that differs.
func TestCheckNamesEveryMovedCase(t *testing.T) {
	withUpdate(t, false)
	path := filepath.Join(t.TempDir(), "digests.golden")
	committed := Digests([]Case{{"a", "1"}, {"b", "2"}, {"c", "3"}, {"gone", "4"}})
	if err := os.WriteFile(path, []byte(committed), 0o644); err != nil {
		t.Fatal(err)
	}
	if f := check(path, committed); len(f.msgs) > 0 {
		t.Fatalf("an unchanged digest file failed: %q", f.msgs)
	}
	got := strings.Join(check(path, Digests([]Case{{"a", "1"}, {"b", "two"}, {"c", "three"}, {"new", "5"}})).msgs, "\n")
	want := path + " differs from this run (rerun with -update if intended): " +
		"4 cases moved (2 changed, 1 added, 1 removed):\n" +
		"changed: b\nchanged: c\nadded:   new\nremoved: gone"
	if got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}

func TestCheckUpdateWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	for _, got := range []string{"first\n", "second\nrun\n"} {
		withUpdate(t, true)
		if f := check(path, got); len(f.msgs) > 0 {
			t.Fatalf("under -update: %q", f.msgs)
		}
		withUpdate(t, false)
		if f := check(path, got); len(f.msgs) > 0 {
			t.Errorf("the file -update wrote does not check: %q", f.msgs)
		}
	}
}

// TestDigestsFormat pins the digest file's bytes: the committed
// testdata/*.golden files were written in this format.
func TestDigestsFormat(t *testing.T) {
	got := Digests([]Case{{"empty", ""}, {"a/b", "abc"}})
	want := "# SHA-256 per case; regenerate with -update, do not edit by hand.\n" +
		"empty e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n" +
		"a/b ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad\n"
	if got != want {
		t.Errorf("Digests:\n%s\nwant:\n%s", got, want)
	}
}

// TestOnlyCheck holds the module to one -update flag and one digest
// writer: no Go file outside this package declares a flag named update
// or spells the digest file's header, and only tests and kvtest's test
// helpers import this package, so no command grows the flag.
func TestOnlyCheck(t *testing.T) {
	root := filepath.Join("..", "..")
	self := filepath.Join(root, "internal", "golden")
	updateFlag := regexp.MustCompile(`flag\.\w+\((&\w+, )?"update"`)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == self || d.Name() == "testdata" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if updateFlag.Match(src) {
			t.Errorf("%s declares its own update flag; use golden.Updating", path)
		}
		if bytes.Contains(src, []byte(strings.TrimSuffix(header, "\n"))) {
			t.Errorf("%s writes the digest header itself; use golden.Digests", path)
		}
		if bytes.Contains(src, []byte(`"cxl0/internal/golden"`)) && !strings.HasSuffix(path, "_test.go") && filepath.Base(filepath.Dir(path)) != "kvtest" {
			t.Errorf("%s imports internal/golden outside a test", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
