package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// resultCite matches a committed-result path as the docs write them:
// results/<file>.<ext> (possibly under another directory, possibly a
// glob) or a BENCH_<x>.json record.
var resultCite = regexp.MustCompile(`[\w./-]*(?:results/[\w.*-]+\.(?:txt|json|md)|BENCH_\w+\.json)`)

// TestDocsCiteCommittedResults keeps the evaluation docs honest: no
// unfilled RESULTS- placeholder in EXPERIMENTS.md, and every result file
// README/DESIGN/EXPERIMENTS cite exists at the path they give, relative to
// the repository root.
func TestDocsCiteCommittedResults(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		if doc == "EXPERIMENTS.md" && bytes.Contains(text, []byte("RESULTS-")) {
			t.Errorf("%s still holds a RESULTS- placeholder", doc)
		}
		for _, cite := range resultCite.FindAllString(string(text), -1) {
			found, err := filepath.Glob(filepath.Join(root, cite))
			if err != nil {
				t.Fatal(err)
			}
			if len(found) == 0 {
				t.Errorf("%s cites %s, which does not exist", doc, cite)
			}
		}
	}
}
