package cludistream_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The paper-to-code map is DESIGN.md §3: one table row per element of the
// paper, with the Go symbol that implements it, the test that pins it and
// the metric that measures it.
const (
	mapStart = "## 3. Paper-to-code map"
	mapEnd   = "\n## 4."
)

var backticked = regexp.MustCompile("`([^`]+)`")

// mapRow is one row of the map: its paper element and the backticked
// names of its symbol, test and metric cells. noMetric marks a row whose
// metric cell gives the reason it has none ("none: …").
type mapRow struct {
	element                string
	symbols, tests, metric []string
	noMetric               bool
}

// readPaperMap parses the map's table rows from DESIGN.md.
func readPaperMap(t *testing.T) []mapRow {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i := strings.Index(doc, mapStart)
	if i < 0 {
		t.Fatalf("DESIGN.md has no %q section", mapStart)
	}
	doc = doc[i:]
	if j := strings.Index(doc, mapEnd); j >= 0 {
		doc = doc[:j]
	}
	names := func(cell string) []string {
		var out []string
		for _, m := range backticked.FindAllStringSubmatch(cell, -1) {
			out = append(out, m[1])
		}
		return out
	}
	var rows []mapRow
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") || strings.HasPrefix(line, "| Paper element") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 4 {
			t.Fatalf("DESIGN.md §3 row %q has %d cells, want 4", line, len(cells))
		}
		rows = append(rows, mapRow{
			element:  strings.TrimSpace(cells[0]),
			symbols:  names(cells[1]),
			tests:    names(cells[2]),
			metric:   names(cells[3]),
			noMetric: strings.HasPrefix(strings.TrimSpace(cells[3]), "none: "),
		})
	}
	return rows
}

// goPackage is the parsed source of one directory: its non-test
// declarations and the function names of its _test.go files.
type goPackage struct {
	decls   map[string]bool // "X" for a top-level name, "T.M" for a method or struct field
	testFns map[string]bool
}

// loadPackage parses every Go file of dir.
func loadPackage(dir string) (*goPackage, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	p := &goPackage{decls: map[string]bool{}, testFns: map[string]bool{}}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		isTest := strings.HasSuffix(name, "_test.go")
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case isTest:
					if d.Recv == nil {
						p.testFns[d.Name.Name] = true
					}
				case d.Recv == nil:
					p.decls[d.Name.Name] = true
				default:
					p.decls[recvType(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				if isTest {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						p.decls[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									p.decls[s.Name.Name+"."+n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.decls[n.Name] = true
						}
					}
				}
			}
		}
	}
	return p, nil
}

// recvType is the type name of a method receiver, T or *T.
func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// splitRef splits a map reference into its package directory and the name
// inside it: `site.Site.Observe` is ("internal/site", "Site.Observe"),
// `cludistream.New` is (".", "New") and `cmd/dst.Main` is ("cmd/dst",
// "Main").
func splitRef(ref string) (dir, name string) {
	slash := strings.LastIndex(ref, "/")
	dot := strings.Index(ref[slash+1:], ".")
	if dot < 0 {
		return "", ""
	}
	pkg, name := ref[:slash+1+dot], ref[slash+1+dot+1:]
	switch {
	case pkg == "cludistream":
		return ".", name
	case strings.Contains(pkg, "/"):
		return pkg, name
	}
	return "internal/" + pkg, name
}

// nonTestStrings collects every string literal of the module's non-test Go
// files.
func nonTestStrings(t *testing.T) map[string]bool {
	t.Helper()
	lits := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && path != ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					lits[s] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lits
}

// benchmarkMetrics collects the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		out[m.Name] = true
	}
	return out
}

// TestPaperMapResolves holds DESIGN.md §3 to the code: every symbol is a
// declaration of its package, every test a function of its package's
// tests, every metric a BENCHMARK.json name or a string literal of
// non-test Go, and every figure and ablation runner of internal/experiments
// has a row. A rename that leaves the map behind fails here, naming the row.
func TestPaperMapResolves(t *testing.T) {
	rows := readPaperMap(t)
	if len(rows) < 30 {
		t.Fatalf("DESIGN.md §3 has %d rows; the parse lost the table", len(rows))
	}
	pkgs := map[string]*goPackage{}
	pkg := func(dir string) *goPackage {
		if p, ok := pkgs[dir]; ok {
			return p
		}
		p, err := loadPackage(dir)
		if err != nil {
			t.Fatalf("parse %s: %v", dir, err)
		}
		pkgs[dir] = p
		return p
	}
	resolve := func(ref string, test bool) bool {
		dir, name := splitRef(ref)
		if dir == "" {
			return false
		}
		if test {
			return pkg(dir).testFns[name]
		}
		return pkg(dir).decls[name]
	}
	lits, bench := nonTestStrings(t), benchmarkMetrics(t)
	mapped := map[string]bool{}
	for _, r := range rows {
		if len(r.symbols) == 0 || len(r.tests) == 0 || len(r.metric) == 0 && !r.noMetric {
			t.Errorf("row %q: needs a symbol, a test and a metric (or \"none: <reason>\")", r.element)
		}
		for _, s := range r.symbols {
			mapped[s] = true
			if !resolve(s, false) {
				t.Errorf("row %q: symbol %s is not declared", r.element, s)
			}
		}
		for _, s := range r.tests {
			if !resolve(s, true) {
				t.Errorf("row %q: test %s does not exist", r.element, s)
			}
		}
		for _, m := range r.metric {
			if !bench[m] && !lits[m] {
				t.Errorf("row %q: metric %s is neither in BENCHMARK.json nor a string literal of non-test Go", r.element, m)
			}
		}
	}
	for name := range pkg("internal/experiments").decls {
		if (strings.HasPrefix(name, "Fig") || strings.HasPrefix(name, "Ablation")) && !strings.Contains(name, ".") && !mapped["experiments."+name] {
			t.Errorf("experiments.%s has no row in DESIGN.md §3", name)
		}
	}
}
