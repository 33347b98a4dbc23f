package nvmcp_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nvmcp/internal/scenario"
)

// optionAllowlist names the options that no non-test code sets but that
// stay, one line each, with the reason. An entry whose field is set again,
// or no longer declared, fails TestEveryOptionIsSet.
var optionAllowlist = map[string]string{
	"nvmcp/internal/scenario.RemoteSpec.Group":            "selects the erasure tier's parity-group width over the fleet topology (DESIGN §13), a mode of the tier",
	"nvmcp/internal/scenario.Scenario.SingleVersion":      "selects the paper's single-version local mode, whose crash loses the local copy",
	"nvmcp/internal/scenario.Scenario.Shards":             "selects the serial or the partitioned event engine for a scenario file; -shards overrides it",
	"nvmcp/internal/scenario.Scenario.DRAMPerNode":        "a §III machine input beside nodes and cores_per_node: the DRAM each node holds",
	"nvmcp/internal/scenario.Scenario.NVMPerNode":         "a §III machine input beside nodes and cores_per_node: the NVM each node holds",
	"nvmcp/internal/scenario.FaultModelSpec.MTBFSoftSecs": "a §III input: the soft-failure MTBF the model and the drift observatory predict from",
	"nvmcp/internal/scenario.FaultModelSpec.MTBFHardSecs": "a §III input: the hard-failure MTBF the model and the drift observatory predict from",
	"nvmcp/internal/scenario.FailureSpec.Soft":            "selects a domain outage's fault mode: a power-cycle that spares the victims' NVM",
}

// optionStructs are the names of the option structs TestEveryOptionIsSet
// covers, in any package under internal/.
var optionStructs = map[string]bool{"Config": true, "Options": true, "Control": true}

// TestEveryOptionIsSet fails for each exported field of an exported struct
// named Config, Options or Control under internal/ that no non-test code of
// the module or of bench/e2e writes, and for each scenario key nothing sets:
// an exported field of a struct scenario.Load decodes (the types reachable
// from scenario.Scenario) that no such code writes and no checked-in
// docs/scenarios file sets to a non-zero value. A field one value serves is
// a constant, not an option. A write is a keyed composite-literal element or
// an assignment to a selector of the field; a write inside an if that
// compares the same field with its zero value is the field's defaulting
// code and does not count. The packages are type-checked from source in
// dependency order, the standard library from the export data go list
// -export names, so a field is known by its object, not its name:
// scenario.LocalSpec and scenario.RemoteSpec both have a Policy. A field
// that must stay unset goes on optionAllowlist.
func TestEveryOptionIsSet(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the option check needs the go toolchain: %v", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Standard                bool
	}
	exports := map[string]string{}
	var pkgs []listed // non-standard packages, every one after its imports
	for _, mod := range []string{".", "bench/e2e"} {
		dec := json.NewDecoder(strings.NewReader(goCmd(t, goBin, "-C", mod, "list", "-export", "-deps",
			"-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")))
		for dec.More() {
			var p listed
			if err := dec.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if _, seen := exports[p.ImportPath]; seen {
				continue
			}
			exports[p.ImportPath] = p.Export
			if !p.Standard {
				pkgs = append(pkgs, p)
			}
		}
	}
	fset := token.NewFileSet()
	imp := sourceImporter{checked: map[string]*types.Package{}, gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var decls []optionDecl
	written := map[*types.Var]bool{}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			rel, err := filepath.Rel(wd, filepath.Join(p.Dir, name))
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, rel, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = pkg
		if strings.HasPrefix(p.ImportPath, "nvmcp/internal/") {
			decls = append(decls, declaredOptions(fset, pkg)...)
		}
		for _, f := range files {
			optionWrites(f, info, written)
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no option structs under internal/")
	}
	keys := scenarioKeys(fset, imp.checked["nvmcp/internal/scenario"])
	if len(keys) == 0 {
		t.Fatal("found no scenario keys")
	}
	files, err := filepath.Glob(filepath.Join("docs", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("found no docs/scenarios files (%v)", err)
	}
	set := map[string]bool{}
	for _, f := range files {
		sc, err := scenario.LoadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fieldsSet(reflect.ValueOf(sc), set)
	}
	for _, k := range keys {
		if set[k.name] {
			written[k.field] = true
		}
	}
	decls = append(decls, keys...)
	for _, msg := range unsetOptions(decls, written, optionAllowlist) {
		t.Error(msg)
	}
}

// sourceImporter hands out the packages already type-checked from source
// and reads every other one (the standard library) from export data.
type sourceImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (s sourceImporter) Import(path string) (*types.Package, error) {
	if p := s.checked[path]; p != nil {
		return p, nil
	}
	return s.gc.Import(path)
}

// optionDecl is one option: its field object, name and file:line, and for a
// scenario key its dotted JSON path.
type optionDecl struct {
	field          *types.Var
	name, pos, key string
}

// declaredOptions lists the exported fields of pkg's exported structs named
// in optionStructs.
func declaredOptions(fset *token.FileSet, pkg *types.Package) []optionDecl {
	var out []optionDecl
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !optionStructs[name] {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			p := fset.Position(f.Pos())
			out = append(out, optionDecl{field: f, name: pkg.Path() + "." + name + "." + f.Name(), pos: fmt.Sprintf("%s:%d", p.Filename, p.Line)})
		}
	}
	return out
}

// scenarioKeys lists the exported JSON fields of the struct types reachable
// from pkg's Scenario through fields, pointers and slices, in the module's
// packages. Each key is the dotted JSON path that first reaches the field.
func scenarioKeys(fset *token.FileSet, pkg *types.Package) []optionDecl {
	var out []optionDecl
	seen := map[*types.Named]bool{}
	var walk func(t types.Type, path string)
	walk = func(t types.Type, path string) {
		switch t := t.(type) {
		case *types.Pointer:
			walk(t.Elem(), path)
		case *types.Slice:
			walk(t.Elem(), path+"[]")
		case *types.Named:
			obj := t.Obj()
			st, ok := t.Underlying().(*types.Struct)
			if !ok || seen[t] || !strings.HasPrefix(obj.Pkg().Path(), "nvmcp/") {
				return
			}
			seen[t] = true
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				key, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
				if !f.Exported() || key == "-" {
					continue
				}
				if key == "" {
					key = f.Name()
				}
				if path != "" {
					key = path + "." + key
				}
				p := fset.Position(f.Pos())
				out = append(out, optionDecl{field: f, name: obj.Pkg().Path() + "." + obj.Name() + "." + f.Name(),
					pos: fmt.Sprintf("%s:%d", p.Filename, p.Line), key: key})
				walk(f.Type(), key)
			}
		}
	}
	walk(pkg.Scope().Lookup("Scenario").Type(), "")
	return out
}

// fieldsSet adds to set the pkg.Type.Field name of every exported field
// that is not zero in v, a decoded scenario, descending through pointers,
// slices and structs.
func fieldsSet(v reflect.Value, set map[string]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			fieldsSet(v.Elem(), set)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fieldsSet(v.Index(i), set)
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if f := v.Field(i); t.Field(i).IsExported() && !f.IsZero() {
				set[t.PkgPath()+"."+t.Name()+"."+t.Field(i).Name] = true
				fieldsSet(f, set)
			}
		}
	}
}

// optionWrites marks in written every struct field that file writes outside
// the field's own defaulting code: a keyed composite-literal element, or an
// assignment (or ++/--) whose left side selects the field, unless an
// enclosing if compares that field with its zero value.
func optionWrites(file *ast.File, info *types.Info, written map[*types.Var]bool) {
	fieldOf := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj().(*types.Var)
		}
		return nil
	}
	isZero := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if tv.IsNil() {
			return true
		}
		if !ok || tv.Value == nil {
			return false
		}
		return tv.Value.ExactString() == "0" || tv.Value.ExactString() == `""` || tv.Value.ExactString() == "false"
	}
	// defaulted collects the fields cond compares with their zero value.
	var defaulted func(cond ast.Expr, into map[*types.Var]bool)
	defaulted = func(cond ast.Expr, into map[*types.Var]bool) {
		be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case token.LAND, token.LOR:
			defaulted(be.X, into)
			defaulted(be.Y, into)
		case token.EQL, token.LSS, token.LEQ, token.GTR, token.GEQ:
			if f := fieldOf(be.X); f != nil && isZero(be.Y) {
				into[f] = true
			}
			if f := fieldOf(be.Y); f != nil && isZero(be.X) {
				into[f] = true
			}
		}
	}
	guards := map[*types.Var]int{} // fields compared with zero by an enclosing if
	mark := func(f *types.Var) {
		if f != nil && guards[f] == 0 {
			written[f] = true
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			g := map[*types.Var]bool{}
			defaulted(n.Cond, g)
			if n.Init != nil {
				ast.Inspect(n.Init, visit)
			}
			ast.Inspect(n.Cond, visit)
			for f := range g {
				guards[f]++
			}
			ast.Inspect(n.Body, visit)
			for f := range g {
				guards[f]--
			}
			if n.Else != nil {
				ast.Inspect(n.Else, visit)
			}
			return false
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				if f, ok := info.Uses[id].(*types.Var); ok && f.IsField() {
					mark(f)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(fieldOf(lhs))
			}
		case *ast.IncDecStmt:
			mark(fieldOf(n.X))
		}
		return true
	}
	ast.Inspect(file, visit)
}

// unsetOptions is the check's comparison step. It reports, sorted, each
// option that is not written and not allowlisted, and each allowlist entry
// that is stale: its option is written or not declared.
func unsetOptions(decls []optionDecl, written map[*types.Var]bool, allow map[string]string) []string {
	var bad []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		_, allowed := allow[d.name]
		switch {
		case written[d.field] && allowed:
			bad = append(bad, fmt.Sprintf("%s %s is set: drop its optionAllowlist entry", d.pos, d.name))
		case !written[d.field] && !allowed && d.key != "":
			bad = append(bad, fmt.Sprintf("%s %s (key %s): no non-test code or docs/scenarios file sets it (make it a constant)",
				d.pos, d.name, d.key))
		case !written[d.field] && !allowed:
			bad = append(bad, fmt.Sprintf("%s %s: no non-test code sets it (make it a constant)", d.pos, d.name))
		}
	}
	for name := range allow {
		if !declared[name] {
			bad = append(bad, fmt.Sprintf("optionAllowlist: %s is not declared: drop its entry", name))
		}
	}
	sort.Strings(bad)
	return bad
}

func TestUnsetOptionsComparison(t *testing.T) {
	const src = `package p

type Config struct {
	Keyed, Assigned, Bumped, Guarded int
	Defaulted, DefaultedLess         int
	Name                             string
	Ptr                              *int
	Kept, Relisted                   int
	unexported                       int
}

type Options struct{ Shared int }

type other struct{ Shared int }

func set(c *Config) {
	_ = []Config{{Keyed: 1, Relisted: 2}}
	c.Assigned = 2
	c.Bumped++
	if c.Defaulted == 0 {
		c.Defaulted = 3
	}
	if c.DefaultedLess <= 0 && c.Name == "" {
		c.DefaultedLess, c.Name = 4, "x"
	}
	if c.Ptr == nil {
		c.Ptr = new(int)
	}
	if c.Keyed > 0 {
		c.Guarded = 5
	}
	_ = other{Shared: 1}
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{}).Check("m/p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	written := map[*types.Var]bool{}
	optionWrites(file, info, written)
	allow := map[string]string{
		"m/p.Config.Kept":     "kept for a stated reason",
		"m/p.Config.Relisted": "stale: set again",
		"m/p.Config.Gone":     "stale: deleted",
	}
	got := unsetOptions(declaredOptions(fset, pkg), written, allow)
	want := []string{
		"optionAllowlist: m/p.Config.Gone is not declared: drop its entry",
		"p.go:12 m/p.Options.Shared: no non-test code sets it (make it a constant)",
		"p.go:5 m/p.Config.Defaulted: no non-test code sets it (make it a constant)",
		"p.go:5 m/p.Config.DefaultedLess: no non-test code sets it (make it a constant)",
		"p.go:6 m/p.Config.Name: no non-test code sets it (make it a constant)",
		"p.go:7 m/p.Config.Ptr: no non-test code sets it (make it a constant)",
		"p.go:8 m/p.Config.Relisted is set: drop its optionAllowlist entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("unsetOptions\n got %q\nwant %q", got, want)
	}
}

// TestScenarioKeysAndFieldsSet holds the two halves of the scenario-key
// check: the walk lists every exported JSON field reachable from Scenario
// under its dotted path, skipping json:"-" and unexported fields, and a
// decoded scenario marks exactly its non-zero fields as set.
func TestScenarioKeysAndFieldsSet(t *testing.T) {
	const src = `package p

type Scenario struct {
	Name   string ` + "`json:\"name\"`" + `
	Fleet  *Fleet ` + "`json:\"fleet,omitempty\"`" + `
	Hidden int    ` + "`json:\"-\"`" + `
	Plain  int
	local  int
}

type Fleet struct {
	Templates []Template ` + "`json:\"templates\"`" + `
}

type Template struct {
	Cores int ` + "`json:\"cores\"`" + `
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := (&types.Config{}).Check("nvmcp/p", fset, []*ast.File{file}, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := scenarioKeys(fset, pkg)
	var got []string
	for _, k := range keys {
		got = append(got, k.pos+" "+k.name+" "+k.key)
	}
	want := []string{
		"p.go:4 nvmcp/p.Scenario.Name name",
		"p.go:5 nvmcp/p.Scenario.Fleet fleet",
		"p.go:12 nvmcp/p.Fleet.Templates fleet.templates",
		"p.go:16 nvmcp/p.Template.Cores fleet.templates[].cores",
		"p.go:7 nvmcp/p.Scenario.Plain Plain",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("scenarioKeys\n got %q\nwant %q", got, want)
	}
	if bad := unsetOptions(keys[3:4], map[*types.Var]bool{}, nil); len(bad) != 1 ||
		bad[0] != "p.go:16 nvmcp/p.Template.Cores (key fleet.templates[].cores): no non-test code or docs/scenarios file sets it (make it a constant)" {
		t.Fatalf("unsetOptions on a key = %q", bad)
	}

	set := map[string]bool{}
	fieldsSet(reflect.ValueOf(&scenario.Scenario{
		Name:  "x",
		Fleet: &scenario.FleetSpec{Templates: []scenario.NodeTemplate{{Cores: 2}}},
	}), set)
	var names []string
	for n := range set {
		names = append(names, strings.TrimPrefix(n, "nvmcp/internal/scenario."))
	}
	sort.Strings(names)
	if w := "FleetSpec.Templates NodeTemplate.Cores Scenario.Fleet Scenario.Name"; strings.Join(names, " ") != w {
		t.Fatalf("fieldsSet = %v, want %s", names, w)
	}
}
