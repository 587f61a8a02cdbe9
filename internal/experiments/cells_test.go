package experiments

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestCells holds the fan-out's contract at one and at several workers:
// every cell runs exactly once, n = 0 runs nothing, and with cells 3 and 7
// failing the error is cell 3's even when cell 7 finishes first.
func TestCells(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

			if err := cells(0, func(int) error {
				t.Error("cell ran for n = 0")
				return nil
			}); err != nil {
				t.Fatalf("n = 0: %v", err)
			}

			const n = 12
			var runs [n]atomic.Int32
			var order atomic.Int32 // finishing position, 1-based
			var finished [n]int32
			sevenDone := make(chan struct{})
			err := cells(n, func(i int) error {
				runs[i].Add(1)
				// With several workers the others go on past cell 3, so
				// cell 7 can be made to finish first. One worker runs the
				// cells in index order and cannot wait.
				if i == 3 && procs > 1 {
					<-sevenDone
				}
				finished[i] = order.Add(1)
				if i == 7 {
					close(sevenDone)
				}
				if i == 3 || i == 7 {
					return fmt.Errorf("cell %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "cell 3" {
				t.Fatalf("error = %v, want cell 3's", err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("cell %d ran %d times, want 1", i, got)
				}
			}
			if procs > 1 && finished[7] > finished[3] {
				t.Errorf("cell 7 finished at %d, after cell 3 at %d", finished[7], finished[3])
			}
		})
	}
}
