package vet

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the tree under analysis, with the
// full type information the analyzers need.
type Package struct {
	Path  string // import path ("repro/internal/storm", "fixture/lockdiscipline")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages using only the standard library:
// module-local import paths resolve against the module directory, fixture
// paths against the Extra map, and everything else (the standard library)
// against GOROOT via go/build — type-checked from source, so no export
// data or external tooling is involved. Cgo is disabled in the build
// context so packages like net resolve to their pure-Go fallback files.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string
	// Extra maps import paths to directories outside go/build's normal
	// resolution — the fixture packages under testdata/.
	Extra map[string]string

	ctxt    build.Context
	tctx    *types.Context
	sizes   types.Sizes
	full    map[string]*Package       // module + Extra packages, with Info
	deps    map[string]*types.Package // everything else, types only
	loading map[string]bool           // cycle guard
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		Fset:       token.NewFileSet(),
		ModulePath: modPath,
		ModuleDir:  root,
		Extra:      map[string]string{},
		ctxt:       ctxt,
		tctx:       types.NewContext(),
		sizes:      types.SizesFor("gc", build.Default.GOARCH),
		full:       map[string]*Package{},
		deps:       map[string]*types.Package{},
		loading:    map[string]bool{},
	}, nil
}

// FindModuleRoot walks up from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("vet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("vet: no module directive in %s", gomod)
}

// Expand resolves package patterns — "./...", "./internal/storm", or plain
// import paths — into the sorted list of module import paths they denote.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			paths, err := l.walk(l.ModuleDir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			dir := filepath.Join(l.ModuleDir, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
			paths, err := l.walk(dir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasPrefix(pat, "./"):
			rel := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(pat, "./")))
			if rel == "." {
				add(l.ModulePath)
			} else {
				add(l.ModulePath + "/" + rel)
			}
		default:
			add(pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

// walk collects the import paths of every buildable package under dir,
// skipping testdata, hidden and underscore-prefixed directories.
func (l *Loader) walk(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := l.ctxt.ImportDir(path, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return fmt.Errorf("vet: %s: %v", path, err)
		}
		rel, err := filepath.Rel(l.ModuleDir, path)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.ModulePath)
		} else {
			out = append(out, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	return out, err
}

// Load type-checks the package at the given import path (module-local or
// Extra) with full type information, memoized per loader.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.full[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("vet: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("vet: %s: %v", path, err)
	}
	files, err := l.parseFiles(dir, bp.GoFiles, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer:    &fromImporter{l: l, dir: dir},
		Sizes:       l.sizes,
		Context:     l.tctx,
		FakeImportC: true,
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("vet: type-checking %s: %v", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.full[path] = p
	return p, nil
}

// dirFor maps a module-local or Extra import path to its directory.
func (l *Loader) dirFor(path string) (string, error) {
	if dir, ok := l.Extra[path]; ok {
		return dir, nil
	}
	if path == l.ModulePath {
		return l.ModuleDir, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), nil
	}
	return "", fmt.Errorf("vet: %s is not a module-local import path", path)
}

// importPkg is the recursive importer behind type-checking: module-local
// and Extra paths get the full Load treatment; everything else is resolved
// through go/build (GOROOT, including its vendored src/vendor tree, which
// is why the importing package's srcDir matters) and type-checked from
// source without Info.
func (l *Loader) importPkg(path, srcDir string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.Extra[path]; ok || path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	bp, err := l.ctxt.Import(path, srcDir, 0)
	if err != nil {
		return nil, err
	}
	// Cache under the resolved path, so "golang.org/x/..." and its GOROOT
	// "vendor/golang.org/x/..." spelling share one package identity.
	key := bp.ImportPath
	if p, ok := l.deps[key]; ok {
		return p, nil
	}
	if l.loading[key] {
		return nil, fmt.Errorf("vet: import cycle through %s", key)
	}
	l.loading[key] = true
	defer delete(l.loading, key)

	files, err := l.parseFiles(bp.Dir, bp.GoFiles, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:    &fromImporter{l: l, dir: bp.Dir},
		Sizes:       l.sizes,
		Context:     l.tctx,
		FakeImportC: true,
	}
	tpkg, err := conf.Check(path, l.Fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("vet: type-checking dependency %s: %v", path, err)
	}
	l.deps[key] = tpkg
	return tpkg, nil
}

func (l *Loader) parseFiles(dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// fromImporter satisfies types.ImporterFrom so go/types hands the importing
// package's directory through — required for GOROOT's src/vendor tree.
// dir is the fallback when the type-checker calls the plain Import.
type fromImporter struct {
	l   *Loader
	dir string
}

func (f *fromImporter) Import(path string) (*types.Package, error) {
	return f.l.importPkg(path, f.dir)
}

func (f *fromImporter) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if srcDir == "" {
		srcDir = f.dir
	}
	return f.l.importPkg(path, srcDir)
}
