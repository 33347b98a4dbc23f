package nvmcp_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// linkAllowlist names the functions that no binary links but that stay in
// non-test files, one line each, with the reason. An entry whose function is
// linked again, or no longer declared, fails TestEveryFunctionIsLinked.
var linkAllowlist = map[string]string{
	"nvmcp/internal/core.(*Chunk).Payload":        "working-copy oracle of core's, erasure's and remote's payload tests",
	"nvmcp/internal/nvmalloc.(*Allocator).Stats":  "heap-leak oracle of nvmalloc's tests and core's TestNVDeleteReleasesEverything",
	"nvmcp/internal/scenario.(*Scenario).Marshal": "round-trip oracle of scenario.FuzzLoad and cluster.FuzzLoadLowers",
	"nvmcp/internal/sim.(*Env).LiveProcs":         "process-leak oracle of sim's kill and goroutine tests and of precopy's and interconnect's kill tests",
}

// TestEveryFunctionIsLinked fails for each function declared in a non-test
// file of a library package that no binary links: not a command, not an
// example, not the bench/e2e harness. It builds every main package of the
// module (found with go list, so a new command is covered as it lands) and of
// bench/e2e without inlining, so that every called function keeps its
// symbol, and compares their text symbols (go tool nm) with the declarations
// go/parser finds. Generic functions are skipped: nm names them by type
// shape. A function that must stay unlinked goes on linkAllowlist.
func TestEveryFunctionIsLinked(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the link check needs the go toolchain: %v", err)
	}
	bin := t.TempDir()
	linked := map[string]bool{}
	for _, mod := range []string{".", "bench/e2e"} {
		mains := strings.Fields(goCmd(t, goBin, "-C", mod, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./..."))
		out := filepath.Join(bin, filepath.Base(filepath.Clean(mod))) + string(filepath.Separator)
		goCmd(t, goBin, append([]string{"-C", mod, "build", "-gcflags=all=-l", "-o", out}, mains...)...)
	}
	err = filepath.WalkDir(bin, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		sc := bufio.NewScanner(strings.NewReader(goCmd(t, goBin, "tool", "nm", path)))
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[f[2]] = true
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(linked) == 0 {
		t.Fatal("go tool nm listed no text symbols")
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var decls []funcDecl
	pkgs := goCmd(t, goBin, "list", "-f", `{{if ne .Name "main"}}{{.ImportPath}}{{"\t"}}{{.Dir}}{{range .GoFiles}}{{"\t"}}{{.}}{{end}}{{end}}`, "./...")
	for _, line := range strings.Split(strings.TrimSpace(pkgs), "\n") {
		f := strings.Split(line, "\t") // import path, directory, files
		for _, name := range f[2:] {
			rel, err := filepath.Rel(wd, filepath.Join(f[1], name))
			if err != nil {
				t.Fatal(err)
			}
			file, err := parser.ParseFile(fset, rel, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			decls = append(decls, declaredFuncs(fset, f[0], file)...)
		}
	}
	for _, msg := range unlinkedFuncs(decls, linked, linkAllowlist) {
		t.Error(msg)
	}
}

// funcDecl is one declared function: its linker symbol and file:line.
type funcDecl struct{ sym, pos string }

// declaredFuncs lists the functions of file that the linker names
// predictably. A value receiver is named pkg.T.M and a pointer receiver
// pkg.(*T).M. Init functions and generic functions or methods are left out.
func declaredFuncs(fset *token.FileSet, pkgPath string, file *ast.File) []funcDecl {
	var out []funcDecl
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name == "_" || fd.Type.TypeParams != nil || (fd.Recv == nil && fd.Name.Name == "init") {
			continue
		}
		sym := pkgPath + "." + fd.Name.Name
		if fd.Recv != nil {
			typ, ptr := fd.Recv.List[0].Type, false
			if star, ok := typ.(*ast.StarExpr); ok {
				typ, ptr = star.X, true
			}
			id, ok := typ.(*ast.Ident)
			if !ok { // a generic receiver, T[X]
				continue
			}
			if ptr {
				sym = pkgPath + ".(*" + id.Name + ")." + fd.Name.Name
			} else {
				sym = pkgPath + "." + id.Name + "." + fd.Name.Name
			}
		}
		p := fset.Position(fd.Pos())
		out = append(out, funcDecl{sym: sym, pos: fmt.Sprintf("%s:%d", p.Filename, p.Line)})
	}
	return out
}

// unlinkedFuncs is the probe's comparison step. It reports, sorted, each
// declared function that is not linked and not allowlisted, and each
// allowlist entry that is stale: its function is linked or not declared.
func unlinkedFuncs(decls []funcDecl, linked map[string]bool, allow map[string]string) []string {
	var bad []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.sym] = true
		_, allowed := allow[d.sym]
		switch {
		case linked[d.sym] && allowed:
			bad = append(bad, fmt.Sprintf("%s %s is linked: drop its linkAllowlist entry", d.pos, d.sym))
		case !linked[d.sym] && !allowed:
			bad = append(bad, fmt.Sprintf("%s %s", d.pos, d.sym))
		}
	}
	for sym := range allow {
		if !declared[sym] {
			bad = append(bad, fmt.Sprintf("linkAllowlist: %s is not declared: drop its entry", sym))
		}
	}
	sort.Strings(bad)
	return bad
}

// goCmd runs the go command and returns its standard output.
func goCmd(t *testing.T, goBin string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(goBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

func TestUnlinkedFuncsComparison(t *testing.T) {
	const src = `package p

func Linked()      {}
func Dead()        {}
func Kept()        {}
func Relinked()    {}
func init()        {}
func Generic[X any]() {}

type T struct{}
type G[X any] struct{}

func (T) Value()    {}
func (*T) Pointer() {}
func (*T) Misnamed() {}
func (*G[X]) Method() {}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	decls := declaredFuncs(fset, "m/p", file)
	var syms []string
	for _, d := range decls {
		syms = append(syms, d.sym)
	}
	wantSyms := []string{"m/p.Linked", "m/p.Dead", "m/p.Kept", "m/p.Relinked", "m/p.T.Value", "m/p.(*T).Pointer", "m/p.(*T).Misnamed"}
	if fmt.Sprint(syms) != fmt.Sprint(wantSyms) {
		t.Fatalf("declared symbols\n got %v\nwant %v", syms, wantSyms)
	}
	linked := map[string]bool{
		"m/p.Linked":       true,
		"m/p.Relinked":     true,
		"m/p.T.Value":      true,
		"m/p.(*T).Pointer": true,
		"m/p.T.Misnamed":   true, // the value-receiver name does not link a pointer method
	}
	allow := map[string]string{
		"m/p.Kept":     "an oracle of another package's tests",
		"m/p.Relinked": "stale: linked again",
		"m/p.Gone":     "stale: deleted",
	}
	got := unlinkedFuncs(decls, linked, allow)
	want := []string{
		"linkAllowlist: m/p.Gone is not declared: drop its entry",
		"p.go:15 m/p.(*T).Misnamed",
		"p.go:4 m/p.Dead",
		"p.go:6 m/p.Relinked is linked: drop its linkAllowlist entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("unlinkedFuncs\n got %q\nwant %q", got, want)
	}
}
