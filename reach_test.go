package a64fxbench_test

// The reachability scan: every function in the module's non-test code
// must be reachable from a program entry point or from the public API,
// or be named on the allowlist below with the reason it stays. The scan
// type-checks the module (go/types, the standard library from source)
// and follows what each reference denotes, so a function is reached
// only when reached code uses that very function: a method that shares
// its name with a called one stays unreached. A call through an
// interface reaches the method of every module type that implements
// the interface. A function called only through reflection would need
// an allowlist entry.

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// modulePath is the module's import path (go.mod).
const modulePath = "a64fxbench"

// interfaceMethods are the method names the standard library calls
// through interfaces (fmt.Stringer, error, json.Marshaler and
// Unmarshaler, http.Handler, sort.Interface, io.Writer, io.Reader,
// io.Closer, errors.Unwrap). Those calls are in the standard library,
// where the scan does not look, so every method with one of these names
// is a root.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Write": true, "Read": true, "Close": true, "Unwrap": true,
}

// unreachedAllowed lists the functions no output reaches that stay on
// purpose, as "package.Func" or "package.Type.Method". Each entry is a
// root of the scan, so what it calls needs no entry of its own, and an
// entry that the program or another entry reaches fails the test.
var unreachedAllowed = map[string]bool{
	// (a) The real numerical kernels and their validators. Metered runs
	// are skeletons priced from work profiles; these kernels run only
	// under test, and ROADMAP item 7 is to take the profiles from them.
	"castep.NewSCF": true,
	"castep.PlaneWaveHamiltonian.LowestStates": true,
	"castep.SCF.Converge":                      true,
	"cosa.HBSolver.MaxErrorAgainst":            true,
	"cosa.HBSolver.SetForcing":                 true,
	"cosa.HBSolver.Solve":                      true,
	"cosa.MGSolver.Fine":                       true,
	"cosa.MGSolver.ResidualNorm":               true,
	"cosa.MGSolver.Solve":                      true,
	"cosa.NewHarmonicBalance":                  true,
	"cosa.NewMGSolver":                         true,
	"fft.NaiveDFT":                             true,
	"fft.NewGrid3D":                            true,
	"hpcg.MGSolver.Levels":                     true,
	"hpcg.MGSolver.N":                          true,
	"hpcg.MGSolver.Solve":                      true,
	"hpcg.NewSolver":                           true,
	"linalg.Cholesky":                          true,
	"linalg.CholeskySolve":                     true,
	"linalg.Copy":                              true,
	"linalg.Gemm":                              true,
	"linalg.GemmFlops":                         true,
	"linalg.Matrix.Clone":                      true,
	"linalg.MaxAbs":                            true,
	"linalg.Scale":                             true,
	"minikab.VerifySolve":                      true,
	"nekbone.Mesh.SolvePoisson":                true,
	"nekbone.NewMesh":                          true,
	"nekbone.SolveElementPoisson":              true,
	"opensbli.NewSolver":                       true,
	"opensbli.Solver.Enstrophy":                true,
	"opensbli.Solver.InitTaylorGreen":          true,
	"opensbli.Solver.KineticEnergy":            true,
	"opensbli.Solver.MeanPressure":             true,
	"opensbli.Solver.Step":                     true,
	"opensbli.Solver.TotalEnergy":              true,
	"opensbli.Solver.TotalMass":                true,
	"sparse.Benchmark1Spec":                    true,
	"sparse.CSR.SpMVFlops":                     true,
	"sparse.CSR.SymGSFlops":                    true,
	"sparse.RandomSPD":                         true,
	"sparse.StructuralSpec.NNZ":                true,
	"sparse.StructuralSpec.Rows":               true,

	// (b) Reference oracles that tests hold the engine's price tables
	// and counter split to: a message's price between two nodes, and a
	// phase's time and roofline breakdown.
	"netmodel.Fabric.PointToPoint":        true,
	"netmodel.Fabric.PointToPointDilated": true,
	"perfmodel.CostModel.PhaseBreakdown":  true,
	"perfmodel.CostModel.PhaseTime":       true,

	// (c) Test hooks: what tests read of the serve metrics, the span
	// tree and the counter registry; what they do with a rank mid-job
	// (advance or read its clock, read its node and statistics); the
	// HPCG scenarios of the memory check, the engine's allocation gate
	// and the 100k-rank smoke; and the manifests of the determinism gate
	// (sweep/golden), which only tests write and check.
	"golden.Diff":                 true,
	"golden.Digest":               true,
	"golden.Load":                 true,
	"hpcg.MemoryPerRank":          true,
	"hpcg.ScaleConfig":            true,
	"metrics.NumCollectives":      true,
	"serve.Metrics.CacheHitRatio": true,
	"serve.Metrics.Inflight":      true,
	"serve.Metrics.Queued":        true,
	"serve.Metrics.Requests":      true,
	"simmpi.Rank.Elapse":          true,
	"simmpi.Rank.Node":            true,
	"simmpi.Rank.Now":             true,
	"simmpi.Rank.Stats":           true,
	"telemetry.SpanNode.Find":     true,
	"telemetry.SpanNode.Stages":   true,
	"telemetry.StartSpan":         true,

	// (d) Table II's per-benchmark toolchain lookup, which the
	// toolchain factor of ROADMAP item 6 is to read.
	"arch.ToolchainBenchmarks": true,
	"arch.ToolchainFor":        true,
}

// reachFunc is a node of the reference graph: one function or method
// declaration, or all package-level declarations at once (no key).
type reachFunc struct {
	key  string       // "package.Func" or "package.Type.Method"
	refs []*reachFunc // what the declaration uses, interface calls resolved
}

// reachPkg is the non-test code of one package.
type reachPkg struct {
	path  string // import path
	files []*ast.File
	types *types.Package
}

// reachResult is what the scan finds.
type reachResult struct {
	// unreached are the functions neither the program nor an allowlist
	// entry reaches, sorted.
	unreached []string
	// badEntries maps each allowlist entry that must go to the reason.
	badEntries map[string]string
}

// The source importer reads build.Default, and for a standard-library
// package with cgo files (net, os/user) it runs cgo, which needs a C
// toolchain. The scan reads the pure-Go build instead, as CGO_ENABLED=0
// selects it; the module has no cgo files.
func init() { build.Default.CgoEnabled = false }

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadModule parses the non-test files the default build context
// selects in every package of the module in dir, whose import path is
// modPath, skipping testdata, hidden directories and nested modules,
// and type-checks them. The standard library is type-checked from
// source.
func loadModule(dir, modPath string) ([]*reachPkg, *types.Info, error) {
	fset := token.NewFileSet()
	byPath := map[string]*reachPkg{}
	var pkgs []*reachPkg
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != dir {
			base := d.Name()
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.Default.ImportDir(p, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		pkg := &reachPkg{path: path.Join(modPath, filepath.ToSlash(rel))}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files = append(pkg.files, f)
		}
		byPath[pkg.path] = pkg
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	std := importer.ForCompiler(fset, "source", nil)
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		p := byPath[path]
		if p == nil {
			return std.Import(path)
		}
		if p.types == nil {
			conf := types.Config{Importer: imp}
			tp, err := conf.Check(path, fset, p.files, info)
			if err != nil {
				return nil, err
			}
			p.types = tp
		}
		return p.types, nil
	}
	for _, p := range pkgs {
		if _, err := imp(p.path); err != nil {
			return nil, nil, err
		}
	}
	return pkgs, info, nil
}

// recvNamed returns the named type a method is declared on.
func recvNamed(recv *types.Var) *types.Named {
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// implements reports whether t implements iface. It is unspecified for
// an uninstantiated generic type, so there it asks only that t has a
// method of each of iface's names.
func implements(t types.Type, n *types.Named, iface *types.Interface) bool {
	if n.TypeParams().Len() == 0 {
		return types.Implements(t, iface)
	}
	for i := range iface.NumMethods() {
		m := iface.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name()); obj == nil {
			return false
		}
	}
	return true
}

// scanReach type-checks the module in dir, whose import path is
// modPath, and reports what neither its program nor the allowlist
// allowed reaches, and which entries of allowed must go.
//
// The program's roots are main and init, the root package's exported
// functions, the exported methods of the types it re-exports by alias,
// the methods named in interfaceMethods, and every package-level
// declaration. A function is reached when a reached body or declaration
// uses its object: a call, a method value or expression, or an instance
// of it if it is generic. A use of an interface method reaches that
// method on every type of the module that implements the interface. An
// allowlist entry is a root too, so what it reaches needs no entry, and
// it must go when it names no function, when the program reaches it, or
// when another entry does.
func scanReach(dir, modPath string, allowed map[string]bool) (reachResult, error) {
	pkgs, info, err := loadModule(dir, modPath)
	if err != nil {
		return reachResult{}, err
	}
	funcs := map[*types.Func]*reachFunc{}
	byKey := map[string][]*reachFunc{}
	decls := map[*reachFunc]ast.Node{}
	pkgLevel := &reachFunc{} // every package-level declaration
	roots := []*reachFunc{pkgLevel}
	var pkgDecls []ast.Node
	var named []*types.Named // the module's non-interface types
	aliased := map[*types.Named]bool{}
	for _, p := range pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n, ok := types.Unalias(tn.Type()).(*types.Named)
			switch {
			case !ok:
			case tn.IsAlias():
				if p.path == modPath {
					aliased[n.Origin()] = true
				}
			case !types.IsInterface(n):
				named = append(named, n)
			}
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					if d.(*ast.GenDecl).Tok != token.IMPORT {
						pkgDecls = append(pkgDecls, d)
					}
					continue
				}
				obj, _ := info.Defs[fd.Name].(*types.Func)
				name := fd.Name.Name
				key := p.types.Name() + "." + name
				var recv *types.Named
				if obj != nil && obj.Signature().Recv() != nil {
					recv = recvNamed(obj.Signature().Recv())
					key = p.types.Name() + "." + recv.Obj().Name() + "." + name
				}
				fn := &reachFunc{key: key}
				if obj != nil {
					funcs[obj] = fn
				}
				byKey[key] = append(byKey[key], fn)
				decls[fn] = fd
				exported := fd.Name.IsExported()
				if (recv == nil && (name == "main" || name == "init")) ||
					(recv == nil && exported && p.path == modPath) ||
					(recv != nil && exported && aliased[recv.Origin()]) ||
					(recv != nil && interfaceMethods[name]) {
					roots = append(roots, fn)
				}
			}
		}
	}

	impls := map[*types.Func][]*reachFunc{} // interface method → implementations
	implementations := func(m *types.Func) []*reachFunc {
		if fns, ok := impls[m]; ok {
			return fns
		}
		iface := m.Signature().Recv().Type().Underlying().(*types.Interface)
		var fns []*reachFunc
		for _, n := range named {
			for _, t := range []types.Type{n, types.NewPointer(n)} {
				if !implements(t, n, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
				if f, ok := obj.(*types.Func); ok && funcs[f.Origin()] != nil {
					fns = append(fns, funcs[f.Origin()])
				}
				break
			}
		}
		impls[m] = fns
		return fns
	}
	refs := func(fn *reachFunc, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			f, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			f = f.Origin()
			if g := funcs[f]; g != nil {
				fn.refs = append(fn.refs, g)
			} else if recv := f.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				fn.refs = append(fn.refs, implementations(f)...)
			}
			return true
		})
	}
	for fn, d := range decls {
		refs(fn, d)
	}
	for _, d := range pkgDecls {
		refs(pkgLevel, d)
	}

	// reach marks in seen what the functions in from reach, themselves
	// only through a cycle.
	reach := func(seen map[*reachFunc]bool, from ...*reachFunc) {
		stack := slices.Clone(from)
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, g := range fn.refs {
				if !seen[g] {
					seen[g] = true
					stack = append(stack, g)
				}
			}
		}
	}
	anyIn := func(fns []*reachFunc, seen map[*reachFunc]bool) bool {
		return slices.ContainsFunc(fns, func(fn *reachFunc) bool { return seen[fn] })
	}
	program := map[*reachFunc]bool{}
	for _, fn := range roots {
		program[fn] = true
	}
	reach(program, roots...)

	res := reachResult{badEntries: map[string]string{}}
	entries := make([]string, 0, len(allowed))
	for k := range allowed {
		entries = append(entries, k)
	}
	sort.Strings(entries)
	byEntry := map[string]map[*reachFunc]bool{}
	for _, k := range entries {
		switch fns := byKey[k]; {
		case len(fns) == 0:
			res.badEntries[k] = "names no function"
		case anyIn(fns, program):
			res.badEntries[k] = "the program reaches it"
		default:
			seen := map[*reachFunc]bool{}
			reach(seen, fns...)
			byEntry[k] = seen
		}
	}
	for _, k := range entries {
		for _, other := range entries {
			if other != k && byEntry[k] != nil && anyIn(byKey[k], byEntry[other]) {
				res.badEntries[k] = "entry " + other + " reaches it"
				break
			}
		}
	}
	for fn := range decls {
		if program[fn] || allowed[fn.key] || slices.ContainsFunc(entries, func(k string) bool { return byEntry[k][fn] }) {
			continue
		}
		res.unreached = append(res.unreached, fn.key)
	}
	sort.Strings(res.unreached)
	res.unreached = slices.Compact(res.unreached)
	return res, nil
}

// TestReachability fails on a function that nothing reaches and the
// allowlist does not name, and on an allowlist entry that names no
// function or that the program or another entry reaches, so the list
// stays minimal and cannot go stale.
func TestReachability(t *testing.T) {
	t.Parallel()
	res, err := scanReach(".", modulePath, unreachedAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.unreached {
		t.Errorf("%s: no program entry point or public API reaches it; delete it, or allowlist it with its reason", k)
	}
	for k, why := range res.badEntries {
		t.Errorf("allowlist entry %s: %s; remove it", k, why)
	}
}

// TestReachabilityScan runs the scan over the fixture module in
// testdata/reach, whose functions are each one case: a dead method named
// like a called function, a method reached only through an interface, a
// method value, a method of a generic type, and an allowlisted root
// that reaches a helper.
func TestReachabilityScan(t *testing.T) {
	t.Parallel()
	scan := func(allowed ...string) reachResult {
		t.Helper()
		set := map[string]bool{}
		for _, k := range allowed {
			set[k] = true
		}
		res, err := scanReach(filepath.Join("testdata", "reach"), "reachfixture", set)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := scan("shapes.Kernel")
	if want := []string{"shapes.Grid.Solve"}; !slices.Equal(res.unreached, want) || len(res.badEntries) != 0 {
		t.Errorf("unreached %v, bad entries %v; want %v and none", res.unreached, res.badEntries, want)
	}
	for _, c := range []struct{ entry, why string }{
		{"shapes.Gone", "names no function"},
		{"shapes.Square.Area", "the program reaches it"},
		{"shapes.helper", "entry shapes.Kernel reaches it"},
	} {
		res := scan("shapes.Kernel", c.entry)
		if len(res.badEntries) != 1 || res.badEntries[c.entry] != c.why {
			t.Errorf("with entry %s: bad entries %v, want only %q", c.entry, res.badEntries, c.why)
		}
	}
}
