package fpgasat_test

// TestDocsRelativeLinks is the link checker behind CI's docs-check
// job: every relative markdown link in the documentation must resolve
// to a file or directory in the repository, and every cmd/<name> it
// mentions must be a command directory, so renames and deletions
// cannot silently orphan the documentation. External (http) and
// intra-document (#anchor) links are out of scope.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target); images share
// the syntax and are checked the same way.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// cmdMention matches a mention of a command, cmd/<name>.
var cmdMention = regexp.MustCompile(`\bcmd/(\w+)`)

func TestDocsRelativeLinks(t *testing.T) {
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatalf("reading docs/: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}

	checked := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#") // strip section anchors
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (%v)", file, m[1], err)
			}
			checked++
		}
		for _, m := range cmdMention.FindAllStringSubmatch(string(raw), -1) {
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s: %q names no command directory under cmd/", file, m[0])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no relative links found: the checker is miswired")
	}
	t.Logf("checked %d relative links across %d files", checked, len(files))
}
