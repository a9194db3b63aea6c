package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vadasa"
)

// The loader makes of every header spelling in internal/mdb's shared table
// the schema recorded there — the one the daemon's endpoints are held to as
// well (cmd/vadasad TestHeaderTable) — and an override given with -id names
// a column whatever padding or quoting the file wraps it in.
func TestLoadCSVHeaderTable(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "mdb", "testdata", "headers.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name   string      `json:"name"`
		CSV    string      `json:"csv"`
		Schema [][2]string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), c.Name+".csv")
		if err := os.WriteFile(path, []byte(c.CSV), 0o644); err != nil {
			t.Fatal(err)
		}
		d, _, err := loadCSV(vadasa.New(), path, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if len(d.Attrs) != len(c.Schema) || len(d.Rows) != 4 {
			t.Fatalf("%s: %d attributes, %d rows", c.Name, len(d.Attrs), len(d.Rows))
		}
		for i, a := range d.Attrs {
			if a.Name != c.Schema[i][0] || a.Category.String() != c.Schema[i][1] {
				t.Fatalf("%s: attribute %d is %s/%s, want %v", c.Name, i, a.Name, a.Category, c.Schema[i])
			}
		}
		sector := c.Schema[2][0]
		d, _, err = loadCSV(vadasa.New(), path, overrideMap([]string{sector}, nil, ""), 0)
		if err != nil || d.Attrs[2].Category != vadasa.Identifier {
			t.Fatalf("%s: -id %s: column is %v, %v", c.Name, sector, d.Attrs[2].Category, err)
		}
	}
}

// An -in that cannot seek loads like a regular file: the CSV is fed through a
// pipe, as in `vadasa generate | vadasa assess -in /dev/stdin`.
func TestLoadCSVFromPipe(t *testing.T) {
	const csv = "Id,Area,Sector,Employees,Weight\n" +
		"1,North,Retail,10-50,3\n2,North,Retail,10-50,2\n3,South,Energy,50-250,4\n4,South,Energy,250+,1\n"
	file := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(file, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	want, _, err := loadCSV(vadasa.New(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	path := fmt.Sprintf("/dev/fd/%d", r.Fd())
	if _, err := os.Stat(path); err != nil {
		w.Close()
		t.Skipf("no /dev/fd on this platform: %v", err)
	}
	go func() {
		w.WriteString(csv)
		w.Close()
	}()
	got, _, err := loadCSV(vadasa.New(), path, nil, 0)
	if err != nil {
		t.Fatalf("loading from a pipe: %v", err)
	}
	if !reflect.DeepEqual(got.Attrs, want.Attrs) || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("pipe loaded %v %v, file %v %v", got.Attrs, got.Rows, want.Attrs, want.Rows)
	}
}
