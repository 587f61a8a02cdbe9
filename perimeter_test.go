package sfccube_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestPerimeter holds the repository to one rule: every non-test top-level
// declaration under internal/ is reachable from a main, an init or a
// package-level variable of a program in cmd/, examples/ or bench/, or it is
// named in testdata/perimeter_keep.txt with the reason it stays (an oracle
// tests compare against, validation physics, a test hook). The test fails in
// both directions: an unreachable declaration that is not listed, and a
// listed one that has become reachable or no longer exists.
//
// Reachability is computed on type-checked source (stdlib go/types only).
// A function, type, variable or constant is live when a live declaration
// names it. A method is live when its receiver type is live and either a
// live declaration selects it, a live interface type of this module is
// implemented by the receiver and declares it, or its name is one the
// standard library calls through its own interfaces (perimeterStdMethods).
// The members of a const group are live together: deleting one renumbers
// an iota.
func TestPerimeter(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source (~3 s)")
	}
	l, err := perimeterLoad(".")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.unreachable()
	keep, err := perimeterReadKeep(filepath.Join("testdata", "perimeter_keep.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, name := range perimeterSorted(dead) {
		n := dead[name]
		lines += n
		if _, ok := keep[name]; !ok {
			t.Errorf("%s (%d lines) is reached by no program in cmd/, examples/ or bench/: delete it, or list it in testdata/perimeter_keep.txt with a reason", name, n)
		}
	}
	for _, name := range perimeterSorted(keep) {
		if _, ok := dead[name]; !ok {
			t.Errorf("testdata/perimeter_keep.txt lists %s, which is reachable or gone: drop the line", name)
		}
	}
	t.Logf("%d kept declarations, %d lines", len(keep), lines)
	for _, name := range l.unwrittenFields() {
		t.Errorf("field %s is read but no program or package ever writes it: make it a constant, or delete it with the code that reads it", name)
	}
}

// perimeterStdMethods are method names the standard library reaches through
// interfaces of its own (error, fmt.Stringer, sort.Interface, http.Handler,
// http.ResponseWriter, http.Flusher, io.Writer, json.Marshaler, flag.Value,
// errors.Is/As/Unwrap), which no selector in this module shows.
var perimeterStdMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"ServeHTTP": true, "Header": true, "Write": true, "WriteHeader": true, "Flush": true,
	"Read": true, "Close": true, "MarshalJSON": true, "UnmarshalJSON": true, "Set": true,
}

const perimeterModule = "sfccube"

// perimeterUnit is one top-level declaration (or one const group): the
// syntax that names other declarations, and the objects it declares.
type perimeterUnit struct {
	name   string // pkg.Symbol or pkg.Type.Method, pkg relative to internal/
	node   ast.Node
	info   *types.Info
	lines  int
	report bool         // under internal/
	root   bool         // main, init or package-level var of a program
	typ    *types.Named // set for a type declaration
	live   bool
}

// perimeterLoader type-checks the module's packages from their directories
// and everything else through the source importer, so that one object
// identity holds across every importing package.
type perimeterLoader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package
	unit map[types.Object]*perimeterUnit
	all  []*perimeterUnit
	errs []error
}

func (l *perimeterLoader) Import(path string) (*types.Package, error) {
	if path != perimeterModule && !strings.HasPrefix(path, perimeterModule+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, perimeterModule)))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	pkg, _ := conf.Check(path, l.fset, files, info)
	l.pkgs[path] = pkg
	l.declare(path, files, info)
	return pkg, nil
}

// declare records one unit per top-level declaration of a package.
func (l *perimeterLoader) declare(path string, files []*ast.File, info *types.Info) {
	rel := strings.TrimPrefix(path, perimeterModule+"/")
	report := strings.HasPrefix(rel, "internal/")
	short := strings.TrimPrefix(rel, "internal/")
	add := func(node ast.Node, name string, root bool, ids ...*ast.Ident) *perimeterUnit {
		u := &perimeterUnit{
			name: short + "." + name, node: node, info: info, report: report, root: root,
			lines: l.fset.Position(node.End()).Line - l.fset.Position(node.Pos()).Line + 1,
		}
		for _, id := range ids {
			if obj := info.Defs[id]; obj != nil && id.Name != "_" {
				l.unit[obj] = u
			}
		}
		l.all = append(l.all, u)
		return u
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					name = perimeterRecvName(d.Recv.List[0].Type) + "." + name
				}
				// An init runs whenever its package is linked.
				root := d.Recv == nil && (name == "init" || (!report && name == "main"))
				add(d, name, root, d.Name)
			case *ast.GenDecl:
				if d.Tok == token.CONST && d.Lparen.IsValid() {
					var ids []*ast.Ident
					for _, s := range d.Specs {
						ids = append(ids, s.(*ast.ValueSpec).Names...)
					}
					add(d, ids[0].Name, false, ids...)
					continue
				}
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						u := add(s, s.Name.Name, false, s.Name)
						if tn, ok := info.Defs[s.Name].(*types.TypeName); ok {
							u.typ, _ = tn.Type().(*types.Named)
						}
					case *ast.ValueSpec:
						// A blank variable is a compile-time assertion: it
						// neither roots what it names nor needs a caller.
						if len(s.Names) == 1 && s.Names[0].Name == "_" {
							continue
						}
						add(s, s.Names[0].Name, !report && d.Tok == token.VAR, s.Names...)
					}
				}
			}
		}
	}
}

func perimeterRecvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// perimeterLoad type-checks every non-test package of cmd/, examples/,
// bench/ and internal/ under root.
func perimeterLoad(root string) (*perimeterLoader, error) {
	// The source importer shells out to cgo for package net unless told not to.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()

	fset := token.NewFileSet()
	l := &perimeterLoader{
		root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{}, unit: map[types.Object]*perimeterUnit{},
	}
	for _, top := range []string{"cmd", "examples", "bench", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if bp, err := build.Default.ImportDir(p, 0); err != nil || len(bp.GoFiles) == 0 {
				return nil // testdata, output directories
			}
			rel, _ := filepath.Rel(root, p)
			_, err = l.Import(perimeterModule + "/" + filepath.ToSlash(rel))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if len(l.errs) > 0 {
		return nil, fmt.Errorf("type-checking: %v (and %d more)", l.errs[0], len(l.errs)-1)
	}
	return l, nil
}

// unreachable returns the internal/ declarations no program reaches, by
// name, with the lines each spans.
func (l *perimeterLoader) unreachable() map[string]int {
	var work []*perimeterUnit
	mark := func(u *perimeterUnit) {
		if u != nil && !u.live {
			u.live = true
			work = append(work, u)
		}
	}
	var liveTypes []*types.Named
	var liveIfaces []*types.Interface
	for _, u := range l.all {
		if u.root {
			mark(u)
		}
	}
	for {
		for len(work) > 0 {
			u := work[len(work)-1]
			work = work[:len(work)-1]
			if u.typ != nil {
				liveTypes = append(liveTypes, u.typ)
			}
			ast.Inspect(u.node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					mark(l.unit[perimeterOrigin(u.info.Uses[n])])
				case *ast.InterfaceType:
					if it, ok := u.info.Types[n].Type.(*types.Interface); ok && it.NumMethods() > 0 {
						liveIfaces = append(liveIfaces, it)
					}
				}
				return true
			})
		}
		// Methods nobody selects by name: through an interface.
		for _, T := range liveTypes {
			if T.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(T)
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				if fn := ms.At(i).Obj(); perimeterStdMethods[fn.Name()] {
					mark(l.unit[perimeterOrigin(fn)])
				}
			}
			for _, it := range liveIfaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
						mark(l.unit[perimeterOrigin(sel.Obj())])
					}
				}
			}
		}
		if len(work) == 0 {
			break
		}
	}

	dead := map[string]int{}
	for _, u := range l.all {
		if u.report && !u.live {
			dead[u.name] += u.lines
		}
	}
	return dead
}

// perimeterOrigin maps an instantiated generic function or method back to
// the object its declaration defines.
func perimeterOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// perimeterReadKeep parses "pkg.Symbol  # reason" lines; blank lines and
// lines starting with # group the entries. A line without a reason is an
// error.
func perimeterReadKeep(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keep := map[string]int{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, "#")
		name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
		if !ok || name == "" || reason == "" {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Symbol  # reason\"", path, n)
		}
		if _, dup := keep[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		keep[name] = n
	}
	return keep, sc.Err()
}

// perimeterSorted lists the names in a stable order, for failure output.
func perimeterSorted(m map[string]int) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// unwrittenFields lists the exported, untagged fields of exported struct types
// under internal/ that non-test code reads and no non-test code of the module
// or bench/ ever writes: a value nobody varies is a constant, not an option.
// A write is a composite literal of the struct (keyed: the fields it names;
// positional: all of them), an assignment, ++/--, address-of, or a conversion
// into the struct type, which fills every field (trace.Message is only ever
// built that way). Fields of a sync or sync/atomic type are written through
// their methods and are exempt.
func (l *perimeterLoader) unwrittenFields() []string {
	read, written := map[*types.Var]bool{}, map[*types.Var]bool{}
	writeAll := func(t types.Type) {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				written[st.Field(i).Origin()] = true
			}
		}
	}
	for _, u := range l.all {
		field := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return nil, nil
			}
			if v, ok := u.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				return sel, v.Origin()
			}
			return nil, nil
		}
		stores := map[*ast.SelectorExpr]bool{} // plain x.F = v: a write that is no read
		write := func(e ast.Expr, store bool) {
			if sel, v := field(e); v != nil {
				written[v] = true
				stores[sel] = store
			}
		}
		ast.Inspect(u.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					write(e, n.Tok == token.ASSIGN)
				}
			case *ast.RangeStmt:
				write(n.Key, true)
				write(n.Value, true)
			case *ast.IncDecStmt:
				write(n.X, false)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X, false)
				}
			case *ast.CompositeLit:
				if len(n.Elts) > 0 {
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						writeAll(u.info.Types[n].Type)
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := u.info.Uses[id].(*types.Var); ok && v.IsField() {
						written[v.Origin()] = true
					}
				}
			case *ast.CallExpr:
				if tv := u.info.Types[n.Fun]; tv.IsType() {
					writeAll(tv.Type)
				}
			case *ast.SelectorExpr:
				if _, v := field(n); v != nil && !stores[n] {
					read[v] = true
				}
			}
			return true
		})
	}
	var out []string
	for _, u := range l.all {
		if !u.report || u.typ == nil || !u.typ.Obj().Exported() {
			continue
		}
		st, ok := u.typ.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() || st.Tag(i) != "" || !read[f] || written[f] {
				continue
			}
			if n, ok := f.Type().(*types.Named); ok && n.Obj().Pkg() != nil && strings.HasPrefix(n.Obj().Pkg().Path(), "sync") {
				continue
			}
			out = append(out, u.name+"."+f.Name())
		}
	}
	sort.Strings(out)
	return out
}
