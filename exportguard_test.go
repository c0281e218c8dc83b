package pgasgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// An exported func, method or type in internal/ earns its capital letter
// with a reference from non-test code outside its declaring package:
// cmd/, examples/, client/, the root package or another internal package.
// Tests do not count, nor does benchmark/, whose probes are the frozen
// harness. A name only its own package calls is unexported; a name only
// tests call lives in a _test.go file. The few that stay exported anyway
// are listed here with the reason.
var exportAllowlist = map[string]string{
	// Shared by other packages' tests.
	"graph.ReverseIdentity":             "the reversed-identity input of the cc, euler, mst and graph tests",
	"pgas.NewInprocTransport":           "the in-process backend the wiretransport conformance tests compare against",
	"pgas/wiretransport.Stats.SentWire": "the socket byte count serve's wire tests assert on",
	"pgas/wiretransport.Stats.RecvWire": "the socket byte count serve's wire tests assert on",
	"serve.Generate":                    "builds a load request's graph; the client tests and benchmark/ build the server's input with it",

	// ROADMAP item 11: kept alive only by benchmark/, whose probes are frozen
	// until the one change that refits them deletes or unexports these.
	"psort.BucketByKeyInto":  "item 11: benchmark/probes.go's psort.bucket_ms probe",
	"sched.Gather":           "item 11: benchmark/probes.go's sched.gather_ms probe",
	"pgas.Runtime.RunE":      "item 11: benchmark/probes.go's empty-region probe; Run is the exported entry",
	"serve.ReadFrame":        "item 11: benchmark/probes.go's codec probes",
	"serve.WriteMsg":         "item 11: benchmark/probes.go's codec probes",
	"serve.QueryReq":         "item 11: the JSON batch the client left; only benchmark/probes.go encodes it",
	"serve.QueryResp":        "item 11: the JSON batch the client left; only benchmark/probes.go decodes it",
	"serve.Server.Service":   "item 11: benchmark/probes.go reaches the resident Service through it",
	"trace.Collector.WallNS": "item 11: benchmark/probes.go's collective.wall_frac probe",
	"trace.Collector.Calls":  "item 11: benchmark/probes.go's collective.calls_per_op and serve.gathers_per_batch probes",
	"trace.Collector.Reset":  "item 11: benchmark/probes.go clears its collector between probe phases",
	"serve.Service.Comm":     "item 11: benchmark/probes.go attaches its tracer to a resident Service through it",
	"serve.Service.Runtime":  "item 11: benchmark/probes.go sizes its collector to a resident Service through it",
	"sim.Breakdown.Total":    "item 11: benchmark/probes.go's sim_ms split",
}

// interfaceMethods are method names that satisfy a standard-library
// interface (fmt.Stringer, error, errors' Unwrap, sort and heap, flag.Value).
// Methods named in an interface the module declares are skipped as well.
var interfaceMethods = []string{"String", "Error", "Unwrap", "Len", "Less", "Swap", "Push", "Pop", "Set"}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// guardFile is one parsed source file; path is slash-separated and
// relative to the module root.
type guardFile struct {
	path string
	file *ast.File
}

// unearnedExports returns, sorted, every exported func, method and type
// declared in internal/ that no counted reference reaches, and every
// allowlist entry that names no such declaration or one that is
// referenced after all. Keys are the package path below internal/, then
// the receiver type for a method: "sched.Reference", "graph.CSR.Degree".
//
// The counted files are type-checked (go/types; the standard library
// through go/importer), and a name is referenced where an identifier
// resolves to it: a selector names the method of the type it resolves
// to, so two methods of one name do not share their callers. A type is
// also referenced by appearing in the signature of a referenced func or
// method, or in the exported fields of a referenced type. Type errors
// are reported as findings.
func unearnedExports(module string, fset *token.FileSet, files []guardFile, allow map[string]string) []string {
	counted := func(f guardFile) bool {
		return !strings.HasSuffix(f.path, "_test.go") && !strings.HasPrefix(f.path, "benchmark/")
	}
	dir := func(f guardFile) string { return path.Dir(f.path) }

	skip := map[string]bool{}
	for _, m := range interfaceMethods {
		skip[m] = true
	}
	byDir := map[string][]*ast.File{}
	for _, f := range files {
		if counted(f) {
			byDir[dir(f)] = append(byDir[dir(f)], f.file)
			ast.Inspect(f.file, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							skip[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	// Type-check every counted package, importing the module's own from
	// these files, and record the directories each object is used from.
	var out []string
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		d, ok := strings.CutPrefix(p, module+"/")
		if p == module {
			d, ok = ".", true
		}
		if !ok {
			return std.Import(p)
		}
		if checked[d] == nil {
			conf := types.Config{Importer: imp, Error: func(err error) { out = append(out, "type check: "+err.Error()) }}
			checked[d], _ = conf.Check(p, fset, byDir[d], info)
		}
		return checked[d], nil
	}
	for d := range byDir {
		imp(path.Join(module, d))
	}
	usedFrom := map[types.Object]map[string]bool{}
	for _, f := range files {
		if !counted(f) {
			continue
		}
		ast.Inspect(f.file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if obj := info.Uses[id]; ok && obj != nil {
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if usedFrom[obj] == nil {
					usedFrom[obj] = map[string]bool{}
				}
				usedFrom[obj][dir(f)] = true
			}
			return true
		})
	}

	// Declarations under internal/. uses holds the nodes whose type names
	// a live declaration keeps alive: a func's signature, a type's
	// definition less its unexported fields.
	type decl struct {
		key, dir, name string
		typ            bool
		obj            types.Object
		uses           []ast.Node
	}
	var decls []*decl
	for _, f := range files {
		if !counted(f) || !strings.HasPrefix(f.path, "internal/") {
			continue
		}
		d := dir(f)
		pkg := strings.TrimPrefix(d, "internal/")
		for _, n := range f.file.Decls {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if !n.Name.IsExported() {
					continue
				}
				if n.Recv == nil {
					decls = append(decls, &decl{key: pkg + "." + n.Name.Name, dir: d, name: n.Name.Name, obj: info.Defs[n.Name], uses: []ast.Node{n.Type}})
					continue
				}
				if skip[n.Name.Name] {
					continue
				}
				recv := n.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch r := recv.(type) { // a generic receiver T[P]
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				key := pkg + "." + recv.(*ast.Ident).Name + "." + n.Name.Name
				decls = append(decls, &decl{key: key, dir: d, name: n.Name.Name, obj: info.Defs[n.Name], uses: []ast.Node{n.Type}})
			case *ast.GenDecl:
				for _, s := range n.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					td := &decl{key: pkg + "." + ts.Name.Name, dir: d, name: ts.Name.Name, typ: true, obj: info.Defs[ts.Name], uses: []ast.Node{ts.Type}}
					if st, ok := ts.Type.(*ast.StructType); ok {
						td.uses = nil
						for _, fl := range st.Fields.List {
							if len(fl.Names) == 0 || fl.Names[0].IsExported() {
								td.uses = append(td.uses, fl.Type)
							}
						}
					}
					decls = append(decls, td)
				}
			}
		}
	}

	live := map[*decl]bool{}
	typesIn := map[string]*decl{}
	for _, d := range decls {
		for from := range usedFrom[d.obj] {
			live[d] = live[d] || from != d.dir
		}
		if d.typ {
			typesIn[d.dir+"."+d.name] = d
		}
	}
	// A live or allowlisted name keeps alive the types of its own package
	// that it names.
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if !live[d] && allow[d.key] == "" {
				continue
			}
			for _, u := range d.uses {
				ast.Inspect(u, func(n ast.Node) bool {
					if _, ok := n.(*ast.SelectorExpr); ok {
						return false // another package's name
					}
					if id, ok := n.(*ast.Ident); ok {
						if t := typesIn[d.dir+"."+id.Name]; t != nil && !live[t] {
							live[t] = true
							changed = true
						}
					}
					return true
				})
			}
		}
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		switch {
		case !live[d] && allow[d.key] == "":
			out = append(out, d.key+": exported, but no non-test code outside its package references it")
		case live[d] && allow[d.key] != "":
			out = append(out, d.key+": on the allowlist, but non-test code outside its package references it")
		}
	}
	for k := range allow {
		if !declared[k] {
			out = append(out, k+": on the allowlist, but no exported declaration has this name")
		}
	}
	sort.Strings(out)
	return out
}

// TestExportGuard holds every exported name in internal/ to a non-test
// caller outside its package, or to a reasoned entry in exportAllowlist.
func TestExportGuard(t *testing.T) {
	fset := token.NewFileSet()
	var files []guardFile
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, guardFile{path: filepath.ToSlash(p), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range unearnedExports("pgasgraph", fset, files, exportAllowlist) {
		t.Error(msg)
	}
}

// TestExportGuardCatchesUnearnedNames feeds the checker a small module
// held in memory, so the guard cannot pass by seeing nothing.
func TestExportGuardCatchesUnearnedNames(t *testing.T) {
	src := map[string]string{
		"internal/lib/lib.go": `package lib
type Visitor interface{ Visit() }
type T struct{ F Field; h Hidden }
type Field int
type Hidden int
type OnlyBenchType int
func New() *T { return nil }
func Nobody() {}
func OnlyTests() {}
func OnlyBench() {}
func Used() {}
func Allowed() {}
func (T) Visit() {}
func (T) String() string { return "" }
func (T) Dead() {}
func (T) Shared() {}
type U int
func (U) Shared() {}
func own() { Nobody(); var t T; t.Dead() }
`,
		"internal/lib/lib_test.go":     `package lib; func x() { OnlyTests() }`,
		"internal/other/other_test.go": `package other; import "m/internal/lib"; func y() { lib.OnlyTests(); var t lib.T; t.Dead() }`,
		"benchmark/probe.go":           `package benchmark; import "m/internal/lib"; func z() { lib.OnlyBench(); _ = lib.OnlyBenchType(0) }`,
		"cmd/tool/main.go":             `package main; import l "m/internal/lib"; func main() { l.Used(); var _ l.Visitor = l.New(); l.New().Shared(); _ = l.U(0) }`,
	}
	fset := token.NewFileSet()
	var files []guardFile
	for p, s := range src {
		f, err := parser.ParseFile(fset, p, s, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, guardFile{path: p, file: f})
	}
	const unearned = ": exported, but no non-test code outside its package references it"
	want := []string{
		"lib.Gone: on the allowlist, but no exported declaration has this name",
		"lib.Hidden" + unearned,
		"lib.Nobody" + unearned,
		"lib.OnlyBench" + unearned,
		"lib.OnlyBenchType" + unearned,
		"lib.OnlyTests" + unearned,
		"lib.T.Dead" + unearned,
		"lib.U.Shared" + unearned,
		"lib.Used: on the allowlist, but non-test code outside its package references it",
	}
	got := unearnedExports("m", fset, files, map[string]string{"lib.Allowed": "why", "lib.Used": "why", "lib.Gone": "why"})
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
