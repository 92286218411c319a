package litmus

import (
	"os"
	"path/filepath"
	"testing"
)

// readScript parses the corpus file testdata/name.
func readScript(t *testing.T, name string) *Script {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseScript(string(raw))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return s
}

// TestScriptCorpusFiles checks every .litmus script under testdata through
// Check: every trace states a verdict, and the model derives each one.
// They double as examples for cxl0-explore; figure3, variants, findings
// and walkthrough are sections of RESULTS.md.
func TestScriptCorpusFiles(t *testing.T) {
	files, err := filepath.Glob("testdata/*.litmus")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected at least 3 script files, found %d", len(files))
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			s := readScript(t, filepath.Base(file))
			verdicts, _ := Check(s)
			for i, vs := range verdicts {
				stated := false
				for _, v := range vs {
					stated = stated || v.Stated
					if v.Violated {
						t.Errorf("trace %d (%s) under %v: got %s, want %s",
							i+1, s.Traces[i].Source, v.Variant, Mark(v.Allowed), Mark(v.Want))
					}
				}
				if !stated {
					t.Errorf("trace %d has no expectations", i+1)
				}
			}
		})
	}
}
