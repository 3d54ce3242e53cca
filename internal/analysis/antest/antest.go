// Package antest is a small analysistest-style harness for the meslint
// analyzers. The Go distribution's cmd/vendor copy of x/tools (see
// third_party/README.md) ships the go/analysis framework but not
// go/analysis/analysistest, so this package reimplements the slice of
// it the suite needs:
//
//   - GOPATH-style fixtures: testdata/src/<pkg>/*.go, loaded and
//     type-checked with the standard library resolved from source
//     (no network, no compiled export data required);
//   - the Requires DAG: prerequisite analyzers (inspect, ctrlflow) run
//     first and their results are wired into Pass.ResultOf;
//   - facts: object and package facts flow between fixture packages
//     through an in-memory store, so mechtable's cross-package
//     detector-coverage audit is testable;
//   - `// want "regexp"` expectations: each diagnostic must match a
//     want on its line, and each want must be matched by a diagnostic.
//
// Expectations use double-quoted Go string literals holding regular
// expressions, e.g.:
//
//	fmt.Println(n) // want "fmt\\.Println in an allocfree function"
package antest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run loads each named fixture package from testdata/src/<pkg>, runs
// the analyzer (and its Requires closure, and the analyzer itself on
// any fixture dependencies first so facts flow), and checks the
// diagnostics of every analyzed fixture package against its `// want`
// comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	ld := &loader{
		root:  filepath.Join(testdata, "src"),
		fset:  token.NewFileSet(),
		cache: make(map[string]*fixturePkg),
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)

	// Load the requested packages (pulling fixture deps transitively),
	// then analyze in dependency order so facts are available upstream.
	for _, path := range pkgs {
		if _, err := ld.load(path); err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
	}
	r := &runner{
		t: t, ld: ld, target: a,
		results:  make(map[string]map[*analysis.Analyzer]interface{}),
		objFacts: make(map[factKey]analysis.Fact),
		pkgFacts: make(map[pkgFactKey]analysis.Fact),
	}
	for _, fp := range ld.order {
		diags := r.analyze(fp)
		checkWants(t, ld.fset, fp, diags)
	}
}

// fixturePkg is one loaded testdata package.
type fixturePkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type loader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*fixturePkg
	order []*fixturePkg // dependency order (deps before dependents)
}

// Import implements types.Importer: fixture directories shadow the
// standard library.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.root, path); dirExists(dir) {
		fp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return fp.pkg, nil
	}
	return ld.std.Import(path)
}

func (ld *loader) load(path string) (*fixturePkg, error) {
	if fp, ok := ld.cache[path]; ok {
		if fp == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return fp, nil
	}
	ld.cache[path] = nil // cycle guard
	dir := filepath.Join(ld.root, path)
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	fp := &fixturePkg{path: path, files: files, pkg: pkg, info: info}
	ld.cache[path] = fp
	ld.order = append(ld.order, fp) // deps appended during Check, before us
	return fp, nil
}

type factKey struct {
	obj types.Object
	t   reflect.Type
}

type pkgFactKey struct {
	pkg *types.Package
	t   reflect.Type
}

type runner struct {
	t        *testing.T
	ld       *loader
	target   *analysis.Analyzer
	results  map[string]map[*analysis.Analyzer]interface{}
	objFacts map[factKey]analysis.Fact
	pkgFacts map[pkgFactKey]analysis.Fact
}

// analyze runs the target analyzer (and its Requires closure) on one
// fixture package and returns the target's diagnostics.
func (r *runner) analyze(fp *fixturePkg) []analysis.Diagnostic {
	r.t.Helper()
	var diags []analysis.Diagnostic
	var run func(a *analysis.Analyzer) interface{}
	run = func(a *analysis.Analyzer) interface{} {
		byPkg := r.results[fp.path]
		if byPkg == nil {
			byPkg = make(map[*analysis.Analyzer]interface{})
			r.results[fp.path] = byPkg
		}
		if res, ok := byPkg[a]; ok {
			return res
		}
		resultOf := make(map[*analysis.Analyzer]interface{})
		for _, dep := range a.Requires {
			resultOf[dep] = run(dep)
		}
		pass := r.newPass(a, fp, resultOf, func(d analysis.Diagnostic) {
			if a == r.target {
				diags = append(diags, d)
			}
		})
		res, err := a.Run(pass)
		if err != nil {
			r.t.Fatalf("%s on %s: %v", a.Name, fp.path, err)
		}
		byPkg[a] = res
		return res
	}
	run(r.target)
	return diags
}

func (r *runner) newPass(a *analysis.Analyzer, fp *fixturePkg, resultOf map[*analysis.Analyzer]interface{}, report func(analysis.Diagnostic)) *analysis.Pass {
	return &analysis.Pass{
		Analyzer:   a,
		Fset:       r.ld.fset,
		Files:      fp.files,
		Pkg:        fp.pkg,
		TypesInfo:  fp.info,
		TypesSizes: types.SizesFor("gc", "amd64"),
		ResultOf:   resultOf,
		Report:     report,
		ReadFile:   os.ReadFile,
		ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
			return copyFact(r.objFacts[factKey{obj, reflect.TypeOf(fact)}], fact)
		},
		ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
			r.objFacts[factKey{obj, reflect.TypeOf(fact)}] = fact
		},
		ImportPackageFact: func(pkg *types.Package, fact analysis.Fact) bool {
			return copyFact(r.pkgFacts[pkgFactKey{pkg, reflect.TypeOf(fact)}], fact)
		},
		ExportPackageFact: func(fact analysis.Fact) {
			r.pkgFacts[pkgFactKey{fp.pkg, reflect.TypeOf(fact)}] = fact
		},
		AllPackageFacts: func() []analysis.PackageFact {
			var out []analysis.PackageFact
			for k, f := range r.pkgFacts {
				out = append(out, analysis.PackageFact{Package: k.pkg, Fact: f})
			}
			sort.Slice(out, func(i, j int) bool { return out[i].Package.Path() < out[j].Package.Path() })
			return out
		},
		AllObjectFacts: func() []analysis.ObjectFact {
			var out []analysis.ObjectFact
			for k, f := range r.objFacts {
				out = append(out, analysis.ObjectFact{Object: k.obj, Fact: f})
			}
			return out
		},
	}
}

// copyFact copies a stored fact into the caller's pointer, mirroring
// the gob round-trip of real drivers.
func copyFact(stored, dst analysis.Fact) bool {
	if stored == nil {
		return false
	}
	dv := reflect.ValueOf(dst)
	sv := reflect.ValueOf(stored)
	if dv.Type() != sv.Type() || dv.Kind() != reflect.Ptr {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}

// want is one `// want "re"` expectation.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// checkWants verifies the diagnostics of one package against its want
// comments: every diagnostic needs a matching want on its line and
// every want must fire.
func checkWants(t *testing.T, fset *token.FileSet, fp *fixturePkg, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range fp.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
					text, err := strconv.Unquote(`"` + q[1] + `"`)
					if err != nil {
						t.Errorf("%s: bad want string %s: %v", pos, q[0], err)
						continue
					}
					re, err := regexp.Compile(text)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, text, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: text})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(names)
	return names, nil
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}
