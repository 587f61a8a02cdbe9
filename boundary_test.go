package sfccube_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestDaemonDoesNotLinkSolver holds the partition daemon apart from the SEAM
// solver: no chain of non-test imports from cmd/partsrv or internal/service
// reaches internal/seam or a package under it, and internal/resilience (the
// request-side layer the daemon shares with the run supervisor in
// internal/seam/supervise) imports no seam package itself.
func TestDaemonDoesNotLinkSolver(t *testing.T) {
	const solver = perimeterModule + "/internal/seam"
	isSolver := func(path string) bool { return path == solver || strings.HasPrefix(path, solver+"/") }
	imports := func(path string) []string {
		dir := filepath.FromSlash(strings.TrimPrefix(path, perimeterModule+"/"))
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return bp.Imports
	}
	for _, imp := range imports(perimeterModule + "/internal/resilience") {
		if isSolver(imp) {
			t.Errorf("internal/resilience imports %s", imp)
		}
	}
	// Breadth-first over the module's own packages; from names the importer
	// that reached each package first, so a failure prints the chain.
	roots := []string{perimeterModule + "/cmd/partsrv", perimeterModule + "/internal/service"}
	from := map[string]string{roots[0]: "", roots[1]: ""}
	for queue := roots; len(queue) > 0; queue = queue[1:] {
		path := queue[0]
		if isSolver(path) {
			chain := path
			for p := from[path]; p != ""; p = from[p] {
				chain = p + " -> " + chain
			}
			t.Errorf("the daemon links the solver: %s", chain)
			continue
		}
		for _, imp := range imports(path) {
			if _, seen := from[imp]; !seen && strings.HasPrefix(imp, perimeterModule+"/") {
				from[imp] = path
				queue = append(queue, imp)
			}
		}
	}
}
