package a64fxbench_test

// The reachability scan: every function in the module's non-test code
// must be reachable from a program entry point or from the public API,
// or be named on the allowlist below with the reason it stays. The scan
// matches by identifier name, not by type, so it over-approximates
// reach: a method counts as called wherever any identifier spells its
// name. What it reports, no reached code names at all; a function
// called only through reflection would need an allowlist entry.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modulePath is the module's import path (go.mod).
const modulePath = "a64fxbench"

// interfaceMethods are the method names the standard library calls
// through interfaces (fmt.Stringer, error, json.Marshaler and
// Unmarshaler, http.Handler, sort.Interface, io.Writer, io.Reader,
// io.Closer, errors.Unwrap), so no identifier in this module need name
// them.
var interfaceMethods = []string{
	"String", "Error", "MarshalJSON", "UnmarshalJSON", "ServeHTTP",
	"Len", "Less", "Swap", "Write", "Read", "Close", "Unwrap",
}

// unreachedAllowed lists the functions no output reaches that stay on
// purpose, as "package.Func" or "package.Type.Method".
var unreachedAllowed = map[string]bool{
	// (a) The real numerical kernels and their validators. Metered runs
	// are skeletons priced from work profiles; these kernels run only
	// under test, and ROADMAP item 6 is to take the profiles from them.
	"castep.NewSCF": true,
	"castep.PlaneWaveHamiltonian.LowestStates": true,
	"castep.SCF.Converge":                      true,
	"cosa.HBSolver.MaxErrorAgainst":            true,
	"cosa.HBSolver.SetForcing":                 true,
	"cosa.HBSolver.X":                          true,
	"cosa.HBSolver.Y":                          true,
	"cosa.HarmonicBalance.TimeSample":          true,
	"cosa.MGSolver.Fine":                       true,
	"cosa.MGSolver.ResidualNorm":               true,
	"cosa.NewBlock":                            true,
	"cosa.NewHBSolver":                         true,
	"cosa.NewHarmonicBalance":                  true,
	"cosa.NewMGSolver":                         true,
	"fft.NaiveDFT":                             true,
	"hpcg.NewSolver":                           true,
	"linalg.AbsDiffMax":                        true,
	"linalg.Cholesky":                          true,
	"linalg.CholeskySolve":                     true,
	"linalg.Copy":                              true,
	"linalg.Gemm":                              true,
	"linalg.GemmFlops":                         true,
	"linalg.MaxAbs":                            true,
	"linalg.TensorApply3D":                     true,
	"minikab.CG":                               true,
	"minikab.VerifySolve":                      true,
	"nekbone.DerivativeMatrix":                 true,
	"nekbone.Element.Ax":                       true,
	"nekbone.Element.Points":                   true,
	"nekbone.GLLPoints":                        true,
	"nekbone.MaskBoundary":                     true,
	"nekbone.Mesh.Ax":                          true,
	"nekbone.Mesh.Dssum":                       true,
	"nekbone.Mesh.GDot":                        true,
	"nekbone.Mesh.Mask":                        true,
	"nekbone.Mesh.MassApply":                   true,
	"nekbone.Mesh.SolvePoisson":                true,
	"nekbone.NewElement":                       true,
	"nekbone.NewMesh":                          true,
	"nekbone.SolveElementPoisson":              true,
	"nekbone.legendre":                         true,
	"opensbli.NewSolver":                       true,
	"opensbli.Solver.Enstrophy":                true,
	"opensbli.Solver.InitTaylorGreen":          true,
	"opensbli.Solver.KineticEnergy":            true,
	"opensbli.Solver.MeanPressure":             true,
	"opensbli.Solver.TotalEnergy":              true,
	"opensbli.Solver.TotalMass":                true,
	"opensbli.Solver.Vorticity":                true,
	"sparse.Benchmark1Spec":                    true,
	"sparse.Builder.Build":                     true,
	"sparse.Builder.EndRow":                    true,
	"sparse.Builder.StartRow":                  true,
	"sparse.CSR.Diagonal":                      true,
	"sparse.CSR.SpMVFlops":                     true,
	"sparse.CSR.SymGSFlops":                    true,
	"sparse.CSR.Validate":                      true,
	"sparse.CSR.buildDiagIdx":                  true,
	"sparse.NewBuilder":                        true,
	"sparse.RandomSPD":                         true,
	"sparse.Stencil27":                         true,
	"sparse.StructuralSpec.Assemble":           true,

	// (b) Reference oracles that tests hold the per-job price tables to.
	"netmodel.Fabric.PointToPointDilated": true,
	"perfmodel.CostModel.PhaseTime":       true,

	// (c) Test hooks: what tests read of the serve metrics, the span
	// tree, the counter registry and a rank's clock, and the HPCG
	// scenarios of the memory check, the engine's allocation gate and
	// the 100k-rank smoke.
	"hpcg.MemoryPerRank":          true,
	"hpcg.ScaleConfig":            true,
	"metrics.NumCollectives":      true,
	"serve.Metrics.CacheHitRatio": true,
	"serve.Metrics.Inflight":      true,
	"serve.Metrics.Queued":        true,
	"serve.Metrics.Requests":      true,
	"simmpi.Rank.Elapse":          true,
	"telemetry.SpanNode.Find":     true,
	"telemetry.SpanNode.Stages":   true,
	"telemetry.StartSpan":         true,

	// (d) Table II's per-benchmark toolchain lookup, which the
	// toolchain factor of ROADMAP item 5 is to read.
	"arch.ToolchainBenchmarks": true,
	"arch.ToolchainFor":        true,
}

// reachFunc is one function or method declaration.
type reachFunc struct {
	key  string // "package.Func" or "package.Type.Method"
	name string
	decl *ast.FuncDecl
}

// reachPkg is the parsed non-test code of one directory.
type reachPkg struct {
	dir   string // relative to the module root, "." for the root
	name  string
	files []*ast.File
}

// parseModule parses every non-test Go file outside bench/, testdata/
// and hidden directories, one reachPkg per directory.
func parseModule(t *testing.T) []*reachPkg {
	t.Helper()
	fset := token.NewFileSet()
	byDir := map[string]*reachPkg{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != "." && (path == "bench" || base == "testdata" || strings.HasPrefix(base, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		p := byDir[dir]
		if p == nil {
			p = &reachPkg{dir: dir, name: f.Name.Name}
			byDir[dir] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]*reachPkg, 0, len(byDir))
	for _, p := range byDir {
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// recvType returns the name of a method's receiver type, "" for a
// function.
func recvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	e := fd.Recv.List[0].Type
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
			return ""
		}
	}
}

// addIdents adds the name of every identifier under n to names.
func addIdents(n ast.Node, names map[string]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			names[id.Name] = true
		}
		return true
	})
}

// aliasedTypes returns the types the root package re-exports by alias,
// as "dir.Type" keys.
func aliasedTypes(root *reachPkg) map[string]bool {
	out := map[string]bool{}
	for _, f := range root.files {
		imports := map[string]string{} // local name → directory
		for _, is := range f.Imports {
			path := strings.Trim(is.Path.Value, `"`)
			dir, ok := strings.CutPrefix(path, modulePath+"/")
			if !ok {
				continue
			}
			local := dir[strings.LastIndex(dir, "/")+1:]
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = dir
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				if !ts.Assign.IsValid() {
					continue
				}
				if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
						out[imports[x.Name]+"."+sel.Sel.Name] = true
					}
				}
			}
		}
	}
	return out
}

// unreachedFuncs runs the scan and returns the keys of every function
// it does not reach, sorted, along with every function's key.
func unreachedFuncs(t *testing.T) (unreached []string, all map[string]bool) {
	t.Helper()
	pkgs := parseModule(t)
	var root *reachPkg
	for _, p := range pkgs {
		if p.dir == "." {
			root = p
		}
	}
	if root == nil {
		t.Fatal("no root package found")
	}
	aliased := aliasedTypes(root)
	isInterfaceMethod := map[string]bool{}
	for _, m := range interfaceMethods {
		isInterfaceMethod[m] = true
	}

	names := map[string]bool{} // identifiers in reached code
	var funcs []*reachFunc
	reached := map[*reachFunc]bool{}
	all = map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if d.Tok != token.IMPORT {
						addIdents(d, names)
					}
				case *ast.FuncDecl:
					rt := recvType(d)
					key := p.name + "." + d.Name.Name
					if rt != "" {
						key = p.name + "." + rt + "." + d.Name.Name
					}
					fn := &reachFunc{key: key, name: d.Name.Name, decl: d}
					funcs = append(funcs, fn)
					all[key] = true
					exported := d.Name.IsExported()
					if (rt == "" && (d.Name.Name == "main" || d.Name.Name == "init")) ||
						(p == root && rt == "" && exported) ||
						(rt != "" && exported && aliased[p.dir+"."+rt]) ||
						(rt != "" && isInterfaceMethod[d.Name.Name]) {
						reached[fn] = true
						addIdents(d, names)
					}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range funcs {
			if !reached[fn] && names[fn.name] {
				reached[fn] = true
				addIdents(fn.decl, names)
				changed = true
			}
		}
	}
	for _, fn := range funcs {
		if !reached[fn] {
			unreached = append(unreached, fn.key)
		}
	}
	sort.Strings(unreached)
	return unreached, all
}

// TestReachability fails on a function that nothing reaches and the
// allowlist does not name, and on an allowlist entry that is reached or
// no longer exists, so the list cannot go stale.
func TestReachability(t *testing.T) {
	t.Parallel()
	unreached, all := unreachedFuncs(t)
	isUnreached := map[string]bool{}
	for _, k := range unreached {
		isUnreached[k] = true
		if !unreachedAllowed[k] {
			t.Errorf("%s: no program entry point or public API reaches it; delete it, or allowlist it with its reason", k)
		}
	}
	for k := range unreachedAllowed {
		switch {
		case !all[k]:
			t.Errorf("allowlist entry %s names no function; remove it", k)
		case !isUnreached[k]:
			t.Errorf("allowlist entry %s is reached; remove it", k)
		}
	}
	t.Logf("%d functions unreached", len(unreached))
}
