package litmus

import (
	"os"
	"path/filepath"
	"testing"

	"cxl0/internal/explore"
)

// TestScriptCorpusFiles parses and verifies every .litmus script under
// testdata. They double as examples for cxl0-explore, and
// walkthrough.litmus is a section of RESULTS.md.
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
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			script, err := ParseScript(string(raw))
			if err != nil {
				t.Fatal(err)
			}
			checked := 0
			for i, tr := range script.Traces {
				if len(tr.Expect) == 0 {
					t.Errorf("trace %d has no expectations", i+1)
				}
				for variant, want := range tr.Expect {
					if got := explore.Allows(script.Topo, variant, tr.Labels); got != want {
						t.Errorf("trace %d (%s) under %v: got %v, want %v",
							i+1, tr.Source, variant, got, want)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Error("no expectations checked")
			}
		})
	}
}
