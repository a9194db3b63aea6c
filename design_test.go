package vadasa

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// layerTable reads DESIGN.md §2's layer table: each package pattern it lists
// (a directory relative to the module root, "." the root package, "dir/*"
// every package directly under dir) with the row it stands on, counting from
// 0.
func layerTable(t *testing.T) (patterns []string, rows []int, names []string) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- layers: begin -->\n", "<!-- layers: end -->"
	_, rest, ok := strings.Cut(string(doc), begin)
	table, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md has no %s…%s block", strings.TrimSpace(begin), end)
	}
	tick := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, " | ")
		if len(cells) < 3 || strings.HasPrefix(line, "|---") || strings.HasPrefix(line, "| layer |") {
			continue
		}
		names = append(names, strings.TrimPrefix(cells[0], "| "))
		for _, m := range tick.FindAllStringSubmatch(cells[1], -1) {
			patterns = append(patterns, m[1])
			rows = append(rows, len(names)-1)
		}
	}
	if len(names) == 0 {
		t.Fatal("DESIGN.md's layer table has no rows")
	}
	return patterns, rows, names
}

// Every package of the module stands on a row of DESIGN.md's layer table, and
// no non-test file imports a package from a later row. A directory with a
// go.mod of its own is another module: the table may list it, the walk skips
// it.
func TestLayersImportDownward(t *testing.T) {
	patterns, rows, names := layerTable(t)
	layerOf := func(dir string) int {
		for i, p := range patterns {
			if ok, _ := path.Match(p, dir); ok {
				return rows[i]
			}
		}
		return -1
	}
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	module := strings.Fields(strings.SplitN(string(mod), "\n", 2)[0])[1]

	imports := map[string][]string{} // package directory → module imports of its non-test files
	err = filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if p != "." && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); p != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if _, ok := imports[dir]; !ok {
			imports[dir] = []string{}
		}
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			if ip == module {
				imports[dir] = append(imports[dir], ".")
			} else if rel, ok := strings.CutPrefix(ip, module+"/"); ok {
				imports[dir] = append(imports[dir], rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range patterns {
		if strings.HasSuffix(p, "/*") {
			continue
		}
		if _, listed := imports[p]; !listed {
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err != nil {
				t.Errorf("DESIGN.md's layer table lists %s, which is no package of this module", p)
			}
		}
	}
	for dir, ims := range imports {
		from := layerOf(dir)
		if from < 0 {
			t.Errorf("package %s stands on no row of DESIGN.md's layer table", dir)
			continue
		}
		for _, im := range ims {
			if to := layerOf(im); to > from {
				t.Errorf("%s (%s) imports %s (%s), a later layer", dir, names[from], im, names[to])
			}
		}
	}
}

// Every reference to a DESIGN.md section names a heading it has: the file's
// name followed by §N, §N.M or a quoted title in the Go sources, README.md,
// EXPERIMENTS.md, the Makefile and the skill notes, and every bare §N inside
// DESIGN.md that does not cite PAPER.md. CHANGES.md and ROADMAP.md are
// history, and cite sections as they were.
func TestDesignReferencesResolve(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	numbers, titles := map[string]bool{}, map[string]bool{}
	heading := regexp.MustCompile(`^##+ (\d+(?:\.\d+)?)\.? (.+)$`)
	for _, line := range strings.Split(string(doc), "\n") {
		if m := heading.FindStringSubmatch(line); m != nil {
			numbers[m[1]], titles[m[2]] = true, true
		}
	}
	section := regexp.MustCompile(`(PAPER\.md )?§(\d+(?:\.\d+)?)`)
	for _, m := range section.FindAllStringSubmatch(string(doc), -1) {
		if m[1] == "" && !numbers[m[2]] {
			t.Errorf("DESIGN.md cites §%s, which it has no heading for", m[2])
		}
	}

	files := []string{"README.md", "EXPERIMENTS.md", "Makefile"}
	err = filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && p != "." && strings.HasPrefix(e.Name(), ".") && e.Name() != ".claude":
			return filepath.SkipDir
		case !e.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasPrefix(filepath.ToSlash(p), ".claude/skills/")):
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`DESIGN\.md(?:\s|//)+(?:§(\d+(?:\.\d+)?)|"([^"\n]+)")`)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(b), -1) {
			if m[1] != "" && !numbers[m[1]] || m[2] != "" && !titles[m[2]] {
				t.Errorf("%s cites %s, which DESIGN.md has no heading for", f, strings.Join(strings.Fields(m[0]), " "))
			}
		}
	}
}
