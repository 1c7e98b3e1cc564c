package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docSpan matches what a document marks as literal or links to: a
// backticked span, or the target of a markdown link.
var docSpan = regexp.MustCompile("`([^`\n]+)`|\\]\\(([^)\\s]+)\\)")

// braces matches the first {a,b,c} alternation of a path.
var braces = regexp.MustCompile(`\{([^{}]*,[^{}]*)\}`)

// repoPath reports whether a word of a span names a file or directory of
// this repository, and returns it as a glob pattern relative to the root.
func repoPath(word string) (string, bool) {
	word = strings.TrimPrefix(strings.Trim(word, `"'()[],;`), "./")
	word, _, _ = strings.Cut(word, "#")
	if i := strings.IndexByte(word, ':'); i >= 0 { // file.go:123
		word = word[:i]
	}
	word = strings.TrimSuffix(strings.TrimSuffix(word, "..."), "/")
	word = strings.TrimRight(word, ".")
	for _, dir := range []string{"internal", "cmd", "benchmark", "measurements", "examples"} {
		if word == dir || strings.HasPrefix(word, dir+"/") {
			return word, true
		}
	}
	if ext := filepath.Ext(word); ext == ".json" || ext == ".golden" {
		return word, true
	}
	return "", false
}

// expand resolves {a,b} alternations into one pattern each.
func expand(pattern string) []string {
	m := braces.FindStringSubmatchIndex(pattern)
	if m == nil {
		return []string{pattern}
	}
	var out []string
	for _, alt := range strings.Split(pattern[m[2]:m[3]], ",") {
		out = append(out, expand(pattern[:m[0]]+alt+pattern[m[1]:])...)
	}
	return out
}

// TestDocPathsExist: every repository path README.md, EXPERIMENTS.md and
// DESIGN.md put in backticks or link to must exist, so deleting or moving
// a file fails here until the documents that name it are edited.
func TestDocPathsExist(t *testing.T) {
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			for _, m := range docSpan.FindAllStringSubmatch(line, -1) {
				for _, word := range strings.Fields(m[1] + m[2]) {
					pattern, ok := repoPath(word)
					if !ok {
						continue
					}
					for _, p := range expand(pattern) {
						if found, err := filepath.Glob(p); err != nil || len(found) == 0 {
							t.Errorf("%s:%d: %s does not exist", doc, n+1, p)
						}
					}
				}
			}
		}
	}
}
