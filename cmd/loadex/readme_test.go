package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmePathsExist keeps README honest about the tree: every
// relative markdown link target and every ./examples/<name> or
// ./cmd/<name> path it names must exist, so deleting a file or a
// program without fixing the prose that sends readers to it fails here.
func TestReadmePathsExist(t *testing.T) {
	root := filepath.Join("..", "..")
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	for _, m := range regexp.MustCompile(`\]\(([^)\s]+)\)`).FindAllSubmatch(readme, -1) {
		target, _, _ := strings.Cut(string(m[1]), "#")
		if target != "" && !strings.Contains(target, "://") {
			paths[target] = true
		}
	}
	for _, m := range regexp.MustCompile(`\./(?:examples|cmd)/[\w-]+`).FindAll(readme, -1) {
		paths[string(m)] = true
	}
	if len(paths) == 0 {
		t.Fatal("README names no paths: the patterns no longer match its style")
	}
	for p := range paths {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			t.Errorf("README names %s: %v", p, err)
		}
	}
}
