package tree

import (
	"fmt"
	"io"
	"strings"
)

// RenderASCII writes an indented view of the tree (Figure 2 style):
// one line per node with type, sizes and — when labels is non-nil —
// an application label such as the mapped processor(s). Large trees are
// elided below maxDepth.
func (t *Tree) RenderASCII(w io.Writer, labels func(id int32) string, maxDepth int) {
	var walk func(id int32, depth int)
	walk = func(id int32, depth int) {
		n := &t.Nodes[id]
		indent := strings.Repeat("  ", depth)
		lbl := ""
		if labels != nil {
			lbl = "  " + labels(id)
		}
		fmt.Fprintf(w, "%s[%d] %s npiv=%d nfront=%d%s\n", indent, n.ID, n.Type, n.Npiv, n.Nfront, lbl)
		if maxDepth > 0 && depth+1 >= maxDepth {
			if len(n.Children) > 0 {
				fmt.Fprintf(w, "%s  … %d subtree node(s)\n", indent, countBelow(t, id))
			}
			return
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
}

func countBelow(t *Tree, id int32) int {
	total := 0
	var walk func(int32)
	walk = func(v int32) {
		for _, c := range t.Nodes[v].Children {
			total++
			walk(c)
		}
	}
	walk(id)
	return total
}
