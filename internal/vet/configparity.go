package vet

import (
	"go/ast"
	"go/types"
	"strings"
)

// ConfigParity keeps the configuration surface honest: every field of a
// struct type named *Config that has a Validate method must be referenced
// inside that Validate, or carry a //vet:ok configparity allowlist line
// stating why any value is valid. Fields silently accepted with no
// validation are how NaN thresholds and negative windows slip into a
// running pipeline. Nothing else catches this: a Config field added
// without a Validate case compiles, vets and passes every test.
var ConfigParity = &Analyzer{
	Name: "configparity",
	Doc:  "Config fields must be checked in Validate or allowlisted",
	Run:  checkConfigValidate,
}

func checkConfigValidate(pass *Pass) {
	info := pass.Pkg.Info
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !strings.HasSuffix(tn.Name(), "Config") {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		validate := findValidateDecl(pass, tn.Name())
		if validate == nil {
			continue
		}
		// Collect the field objects Validate's body references.
		referenced := map[*types.Var]bool{}
		ast.Inspect(validate.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if v := fieldVar(info, sel); v != nil {
					referenced[v] = true
				}
			}
			return true
		})
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if referenced[f] {
				continue
			}
			pass.Reportf(f.Pos(), "%s.%s is not checked in Validate; add a case or allowlist it with //vet:ok configparity -- <why any value is valid>", tn.Name(), f.Name())
		}
	}
}

// findValidateDecl returns the FuncDecl of <typeName>.Validate, if the
// package declares one.
func findValidateDecl(pass *Pass, typeName string) *ast.FuncDecl {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Validate" || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			t := fd.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if id, ok := t.(*ast.Ident); ok && id.Name == typeName {
				return fd
			}
		}
	}
	return nil
}

func fieldVar(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}
