package partition

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTo serialises the partition in the textual format METIS tools use:
// a header line "nvertices nparts" followed by one part index per line, in
// vertex order. It returns the number of bytes written.
func (p *Partition) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	c, err := fmt.Fprintf(bw, "%d %d\n", p.NumVertices(), p.nparts)
	n += int64(c)
	if err != nil {
		return n, err
	}
	for _, q := range p.assign {
		c, err := fmt.Fprintf(bw, "%d\n", q)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}
