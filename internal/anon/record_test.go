package anon

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The payloads under testdata were copied out of journals written before the
// record moved here (a job's iter record, a stream's anon record): what they
// hold decodes, and encodes again to the same bytes. internal/jobs and
// internal/stream round-trip the same files through their whole payloads.
func TestDecisionRecordGolden(t *testing.T) {
	for _, name := range []string{"iter_payload.json", "anon_payload.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var payload struct {
			Decisions json.RawMessage `json:"decisions"`
		}
		if err := json.Unmarshal(raw, &payload); err != nil {
			t.Fatal(err)
		}
		var recs []DecisionRecord
		if err := json.Unmarshal(payload.Decisions, &recs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decisions, err := DecodeDecisions(recs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(decisions) == 0 {
			t.Fatalf("%s holds no decisions; the test proves nothing", name)
		}
		for i, d := range decisions {
			if !d.New.IsNull() || d.Old.IsNull() || d.Method != "local-suppression" || d.RowID != recs[i].RowID {
				t.Fatalf("%s: decision %d decoded to %+v", name, i, d)
			}
		}
		back, err := json.Marshal(EncodeDecisions(decisions))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, payload.Decisions) {
			t.Fatalf("%s: decisions re-encode to\n%s\nwant\n%s", name, back, payload.Decisions)
		}
	}
}

// Algorithm 2 is written once. Over every non-test file of the module: only
// this package steps an Anonymizer, only this package declares the journaled
// form of a decision, and the stream's gate reaches the iteration through
// Loop alone — not through the step context or the routing order.
func TestOneCycle(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if e.IsDir() {
			// benchmark/ and tools/ are modules of their own.
			if rel == "benchmark" || rel == "tools" || e.Name() == "testdata" || (strings.HasPrefix(e.Name(), ".") && rel != ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		here := filepath.Dir(rel) == filepath.Join("internal", "anon")
		inStream := filepath.Dir(rel) == filepath.Join("internal", "stream")
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Step" && !here {
					t.Errorf("%s: an Anonymizer is stepped outside package anon", fset.Position(n.Pos()))
				}
			case *ast.StructType:
				tags := map[string]bool{}
				for _, f := range n.Fields.List {
					if f.Tag != nil {
						name, _, _ := strings.Cut(reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Get("json"), ",")
						tags[name] = true
					}
				}
				if tags["row"] && tags["attr"] && tags["old"] && tags["new"] && !here {
					t.Errorf("%s: a second wire form of anon.Decision", fset.Position(n.Pos()))
				}
			case *ast.SelectorExpr:
				pkg, ok := n.X.(*ast.Ident)
				if inStream && ok && pkg.Name == "anon" {
					switch n.Sel.Name {
					case "Context", "NewContext", "TupleOrder", "OrderLessSignificantFirst", "OrderByRiskDesc", "OrderByID":
						t.Errorf("%s: internal/stream uses anon.%s; the gate's iteration is anon.Loop's", fset.Position(n.Pos()), n.Sel.Name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
