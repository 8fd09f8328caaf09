package sparse

import (
	"bytes"
	"errors"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestMatrixMarketRejectsBadSizeLine(t *testing.T) {
	const header = "%%MatrixMarket matrix coordinate pattern general\n"
	for name, body := range map[string]string{
		"negative n":         "-1 -1 0\n",
		"negative nnz":       "2 2 -1\n1 1\n",
		"n over int32":       "2147483648 2147483648 0\n",
		"nnz over int32":     "2 2 2147483648\n1 1\n",
		"n over int64":       "99999999999999999999 1 0\n",
		"two fields":         "2 2\n",
		"missing":            "",
		"only comments":      "% nothing\n\n% here\n",
		"entry in its place": "x y z\n",
	} {
		p, err := ReadMatrixMarket(strings.NewReader(header + body))
		if !errors.Is(err, ErrMatrixMarketSize) {
			t.Errorf("%s: got pattern %v, error %v; want ErrMatrixMarketSize", name, p, err)
		}
	}
}

// digitRun finds a number long enough to make the reader allocate
// hundreds of megabytes for a dimension no fuzz input backs with entries.
var digitRun = regexp.MustCompile(`[0-9]{7}`)

// FuzzReadMatrixMarket: no input may panic the reader, and whatever it
// accepts is a valid pattern that survives a write/read round trip and
// converts to a graph. The seed corpus is testdata/fuzz/FuzzReadMatrixMarket.
//
// Run with `go test -fuzz=FuzzReadMatrixMarket ./internal/sparse`.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if digitRun.Match(data) {
			t.Skip("dimension too large to allocate in a fuzz worker")
		}
		p, err := ReadMatrixMarket(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted an invalid pattern: %v", err)
		}
		if g := p.ToGraph(); g.N != p.N {
			t.Fatalf("graph has %d vertices, pattern %d", g.N, p.N)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, p); err != nil {
			t.Fatal(err)
		}
		q, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if q.N != p.N || q.Kind != p.Kind || !slices.Equal(q.ColPtr, p.ColPtr) || !slices.Equal(q.RowIdx, p.RowIdx) {
			t.Fatalf("round trip changed the pattern: %v -> %v", p, q)
		}
	})
}
