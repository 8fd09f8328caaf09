package sparse

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// ErrMatrixMarketSize reports a MatrixMarket size line that is missing or
// declares a dimension or entry count outside [0, math.MaxInt32], the range
// a Pattern's int32 indices can address.
var ErrMatrixMarketSize = errors.New("sparse: bad MatrixMarket size line")

// WriteMatrixMarket writes the pattern in MatrixMarket "pattern" format
// (coordinate, pattern, general|symmetric), so generated analogues can be
// inspected with standard sparse-matrix tooling.
func WriteMatrixMarket(w io.Writer, p *Pattern) error {
	bw := bufio.NewWriter(w)
	sym := "general"
	if p.Kind == Sym {
		sym = "symmetric"
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate pattern %s\n", sym); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", p.N, p.N, p.Stored()); err != nil {
		return err
	}
	for j := 0; j < p.N; j++ {
		for q := p.ColPtr[j]; q < p.ColPtr[j+1]; q++ {
			if _, err := fmt.Fprintf(bw, "%d %d\n", p.RowIdx[q]+1, j+1); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket reads a coordinate MatrixMarket file. Numerical values,
// if present, are ignored (only the pattern is kept).
func ReadMatrixMarket(r io.Reader) (*Pattern, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty MatrixMarket input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket header %q", sc.Text())
	}
	kind := Unsym
	for _, f := range header[3:] {
		if f == "symmetric" || f == "skew-symmetric" || f == "hermitian" {
			kind = Sym
		}
	}
	// Skip comments, read size line.
	var n, m, nnz int
	sized := false
	for !sized && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &n, &m, &nnz); err != nil {
			return nil, fmt.Errorf("%w %q: %v", ErrMatrixMarketSize, line, err)
		}
		sized = true
	}
	if !sized {
		return nil, fmt.Errorf("%w: none before end of input", ErrMatrixMarketSize)
	}
	for _, v := range []int{n, m, nnz} {
		if v < 0 || v > math.MaxInt32 {
			return nil, fmt.Errorf("%w: %d %d %d out of range", ErrMatrixMarketSize, n, m, nnz)
		}
	}
	if n != m {
		return nil, fmt.Errorf("sparse: matrix is %dx%d, want square", n, m)
	}
	b := NewBuilder(n, kind)
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		var i, j int
		if _, err := fmt.Sscan(fields[0], &i); err != nil {
			return nil, err
		}
		if _, err := fmt.Sscan(fields[1], &j); err != nil {
			return nil, err
		}
		if i < 1 || i > n || j < 1 || j > n {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range", i, j)
		}
		b.Add(i-1, j-1)
		read++
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: read %d entries, header declared %d", read, nnz)
	}
	return b.Build(), nil
}
