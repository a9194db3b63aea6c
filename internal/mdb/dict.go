package mdb

import (
	"fmt"
	"sort"
)

// Dictionary is the Vada-SA metadata dictionary (Section 4.1): facts of the
// form MicroDB(name), Att(microDB, name, description) and
// Category(microDB, att, cat) describing every registered microdata DB at
// the meta level, which is what makes the framework schema independent.
type Dictionary struct {
	dbs map[string]*dictEntry
}

type dictEntry struct {
	name  string
	attrs []Attribute
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{dbs: make(map[string]*dictEntry)}
}

// Register records a microdata DB and its attributes. Categories present on
// the attributes are kept; they can be overridden later by Categorize.
func (dd *Dictionary) Register(db string, attrs []Attribute) error {
	if db == "" {
		return fmt.Errorf("mdb: dictionary: empty microdata DB name")
	}
	if _, ok := dd.dbs[db]; ok {
		return fmt.Errorf("mdb: dictionary: microdata DB %q already registered", db)
	}
	dd.dbs[db] = &dictEntry{name: db, attrs: append([]Attribute(nil), attrs...)}
	return nil
}

// RegisterDataset registers a dataset's schema under its own name.
func (dd *Dictionary) RegisterDataset(d *Dataset) error {
	return dd.Register(d.Name, d.Attrs)
}

// MicroDBs lists the registered microdata DB names, sorted.
func (dd *Dictionary) MicroDBs() []string {
	out := make([]string, 0, len(dd.dbs))
	for name := range dd.dbs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Attributes returns the attributes of a registered microdata DB.
func (dd *Dictionary) Attributes(db string) ([]Attribute, error) {
	e, ok := dd.dbs[db]
	if !ok {
		return nil, fmt.Errorf("mdb: dictionary: unknown microdata DB %q", db)
	}
	return append([]Attribute(nil), e.attrs...), nil
}

// Category returns the category of an attribute of a registered microdata DB.
func (dd *Dictionary) Category(db, att string) (Category, error) {
	e, ok := dd.dbs[db]
	if !ok {
		return NonIdentifying, fmt.Errorf("mdb: dictionary: unknown microdata DB %q", db)
	}
	for _, a := range e.attrs {
		if a.Name == att {
			return a.Category, nil
		}
	}
	return NonIdentifying, fmt.Errorf("mdb: dictionary: microdata DB %q has no attribute %q", db, att)
}

// SetCategory records the (inferred or expert-provided) category of an
// attribute, as the derived extensional Category facts of Figure 4.
func (dd *Dictionary) SetCategory(db, att string, c Category) error {
	e, ok := dd.dbs[db]
	if !ok {
		return fmt.Errorf("mdb: dictionary: unknown microdata DB %q", db)
	}
	for i := range e.attrs {
		if e.attrs[i].Name == att {
			e.attrs[i].Category = c
			return nil
		}
	}
	return fmt.Errorf("mdb: dictionary: microdata DB %q has no attribute %q", db, att)
}

// Apply copies the dictionary's categories onto a dataset whose name is
// registered, returning an error if the schema does not match.
func (dd *Dictionary) Apply(d *Dataset) error {
	e, ok := dd.dbs[d.Name]
	if !ok {
		return fmt.Errorf("mdb: dictionary: unknown microdata DB %q", d.Name)
	}
	if len(e.attrs) != len(d.Attrs) {
		return fmt.Errorf("mdb: dictionary: microdata DB %q has %d attributes, dataset has %d",
			d.Name, len(e.attrs), len(d.Attrs))
	}
	for i, a := range e.attrs {
		if a.Name != d.Attrs[i].Name {
			return fmt.Errorf("mdb: dictionary: attribute %d is %q in dictionary, %q in dataset",
				i, a.Name, d.Attrs[i].Name)
		}
		d.Attrs[i].Category = a.Category
		d.Attrs[i].Description = a.Description
	}
	return nil
}

// Fact is a generic ground fact used to exchange dictionary and microdata
// content with the reasoning engine (the extensional component).
type Fact struct {
	Pred string
	Args []string
}

// Facts exports the dictionary as MicroDB/Att/Cat facts.
func (dd *Dictionary) Facts() []Fact {
	var fs []Fact
	for _, db := range dd.MicroDBs() {
		e := dd.dbs[db]
		fs = append(fs, Fact{Pred: "microdb", Args: []string{db}})
		for _, a := range e.attrs {
			fs = append(fs, Fact{Pred: "att", Args: []string{db, a.Name, a.Description}})
			fs = append(fs, Fact{Pred: "cat", Args: []string{db, a.Name, a.Category.String()}})
		}
	}
	return fs
}
