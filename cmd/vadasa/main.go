// Command vadasa is the command-line front end of the Vada-SA framework:
// generate synthetic microdata, categorize attributes, assess statistical
// disclosure risk, anonymize, and simulate re-identification attacks.
//
// Usage:
//
//	vadasa datasets
//	vadasa generate  -name R25A4W -out data.csv
//	vadasa categorize -in data.csv
//	vadasa assess    -in data.csv -measure k-anonymity -k 3
//	vadasa anonymize -in data.csv -measure k-anonymity -k 3 -threshold 0.5 \
//	                 -out anon.csv [-recode] [-explain]
//	vadasa attack    -in data.csv [-anonymized anon.csv]
//
// CSV files carry a header row; attribute categories are inferred from the
// header names with the framework's experience base and can be overridden
// with -id/-qi/-weight.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"vadasa"
	"vadasa/internal/risk"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "datasets":
		err = cmdDatasets()
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "categorize":
		err = cmdCategorize(os.Args[2:])
	case "assess":
		err = cmdAssess(os.Args[2:])
	case "anonymize":
		err = cmdAnonymize(os.Args[2:])
	case "attack":
		err = cmdAttack(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "reason":
		err = cmdReason(os.Args[2:])
	case "kb":
		err = cmdKB(os.Args[2:])
	case "pipeline":
		err = cmdPipeline(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "scorecard":
		err = cmdScorecard(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "vadasa: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vadasa: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: vadasa <command> [flags]

commands:
  datasets    list the Figure 6 synthetic dataset family
  generate    generate a synthetic microdata CSV
  categorize  infer attribute categories for a CSV
  assess      estimate per-tuple disclosure risk
  anonymize   run the anonymization cycle
  attack      simulate a re-identification attack
  explain     explain one tuple's disclosure risk (derivation tree)
  reason      evaluate a declarative reasoning program
  kb          export or validate a knowledge-base JSON file
  pipeline    run a declarative anonymization job from a JSON config
  inspect     summarize a microdata CSV (schema, categories, 2-anonymity)
  scorecard   assess under every registered risk measure`)
}

func cmdDatasets() error {
	fmt.Println("Figure 6 dataset family (use with: vadasa generate -name <name>):")
	for _, name := range []string{
		"R6A4U", "R12A4U", "R25A4W", "R25A4U", "R25A4V", "R50A4W",
		"R50A4U", "R50A5W", "R50A6W", "R50A8W", "R50A9W", "R100A4U",
	} {
		fmt.Println(" ", name)
	}
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	name := fs.String("name", "", "Figure 6 dataset name (e.g. R25A4W); overrides the other knobs")
	tuples := fs.Int("tuples", 10000, "number of tuples")
	qis := fs.Int("qis", 4, "number of quasi-identifiers (1-9)")
	dist := fs.String("dist", "W", "distribution family: W, U or V")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output CSV path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var d *vadasa.Dataset
	if *name != "" {
		var err error
		d, err = vadasa.GenerateByName(*name)
		if err != nil {
			return err
		}
	} else {
		var df vadasa.Distribution
		switch strings.ToUpper(*dist) {
		case "W":
			df = vadasa.DistW
		case "U":
			df = vadasa.DistU
		case "V":
			df = vadasa.DistV
		default:
			return fmt.Errorf("unknown distribution %q", *dist)
		}
		d = vadasa.Generate(vadasa.GeneratorConfig{
			Tuples: *tuples, QIs: *qis, Dist: df, Seed: *seed,
		})
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := vadasa.WriteCSV(w, d); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %s: %d tuples, %d quasi-identifiers\n",
		d.Name, len(d.Rows), len(d.QuasiIdentifiers()))
	return nil
}

// loadFlags are the shared input flags of the data-handling commands.
type loadFlags struct {
	in     *string
	ids    *string
	qi     *string
	weight *string
	kb     *string
	scale  *float64
}

func addLoadFlags(fs *flag.FlagSet) loadFlags {
	return loadFlags{
		in:     fs.String("in", "", "input CSV path (required)"),
		ids:    fs.String("id", "", "comma-separated direct-identifier columns (overrides inference)"),
		qi:     fs.String("qi", "", "comma-separated quasi-identifier columns (overrides inference)"),
		weight: fs.String("weight", "", "sampling-weight column (overrides inference)"),
		kb:     fs.String("kb", "", "knowledge-base JSON to load (experience, hierarchy, ownership)"),
		scale:  fs.Float64("estimate-weights", 0, "estimate sampling weights as scale x combination frequency (0 = off)"),
	}
}

// load reads the -in CSV the way the flags say: -kb loaded first, -id/-qi/
// -weight as category overrides.
func (lf loadFlags) load(f *vadasa.Framework) (*vadasa.Dataset, *vadasa.CategorizationResult, error) {
	if *lf.in == "" {
		return nil, nil, fmt.Errorf("-in is required")
	}
	if *lf.kb != "" {
		kbFile, err := os.Open(*lf.kb)
		if err != nil {
			return nil, nil, err
		}
		err = f.LoadKB(kbFile)
		kbFile.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	return loadCSV(f, *lf.in, overrideMap(splitList(*lf.ids), splitList(*lf.qi), *lf.weight), *lf.scale)
}

// overrideMap collects the attribute categories fixed by hand.
func overrideMap(ids, qis []string, weight string) map[string]vadasa.Category {
	overrides := map[string]vadasa.Category{}
	for _, n := range ids {
		overrides[n] = vadasa.Identifier
	}
	for _, n := range qis {
		overrides[n] = vadasa.QuasiIdentifier
	}
	if weight != "" {
		overrides[weight] = vadasa.Weight
	}
	return overrides
}

// loadCSV reads a CSV file: the header names (as vadasa.ParseCSVHeader reads
// them) take the overrides' categories, the rest are inferred through the
// framework, and the file is read against that schema. The file is read once,
// so a pipe (-in /dev/stdin) loads like a regular file. A positive scale
// estimates sampling weights afterwards.
func loadCSV(f *vadasa.Framework, path string, overrides map[string]vadasa.Category, scale float64) (*vadasa.Dataset, *vadasa.CategorizationResult, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	names, err := vadasa.ParseCSVHeader(body)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	attrs, report := f.Schema(names, overrides)
	d, err := vadasa.ReadCSV(bytes.NewReader(body), strings.TrimSuffix(path, ".csv"), attrs)
	if err != nil {
		return nil, nil, err
	}
	if scale > 0 {
		if err := vadasa.EstimateWeights(d, scale); err != nil {
			return nil, nil, err
		}
	}
	return d, report, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func cmdCategorize(args []string) error {
	fs := flag.NewFlagSet("categorize", flag.ExitOnError)
	lf := addLoadFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	f := vadasa.New()
	d, report, err := lf.load(f)
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %-18s %s\n", "attribute", "category", "explanation")
	for _, a := range d.Attrs {
		fmt.Printf("%-24s %-18s %s\n", a.Name, a.Category, report.Explanations[a.Name])
	}
	for _, c := range report.Conflicts {
		fmt.Println("conflict:", c)
	}
	if len(report.Unknown) > 0 {
		fmt.Println("unknown (need expert input):", strings.Join(report.Unknown, ", "))
	}
	return nil
}

// measureOpts answers risk.ParseSpec's parameter lookups for one command.
type measureOpts func(key string) string

// measureFlags declares the measure flags on fs — one string flag per
// parameter of the risk layer's measure table, under the parameter's key,
// default and help text — and returns the lookup that reads them back.
func measureFlags(fs *flag.FlagSet) measureOpts {
	for _, p := range risk.Params {
		fs.String(p.Key, p.Default, p.Usage)
	}
	return func(key string) string { return fs.Lookup(key).Value.String() }
}

func (mo measureOpts) build() (vadasa.RiskMeasure, error) {
	sp, err := risk.ParseSpec(mo)
	if err != nil {
		return nil, err
	}
	return sp.Measure()
}

func cmdAssess(args []string) error {
	fs := flag.NewFlagSet("assess", flag.ExitOnError)
	lf := addLoadFlags(fs)
	mo := measureFlags(fs)
	threshold := fs.Float64("threshold", 0.5, "risk threshold T")
	top := fs.Int("top", 10, "show the N riskiest tuples")
	impact := fs.Bool("impact", false, "report per-attribute impact on the risky-tuple count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f := vadasa.New()
	d, _, err := lf.load(f)
	if err != nil {
		return err
	}
	m, err := mo.build()
	if err != nil {
		return err
	}
	risks, err := f.AssessRisk(d, m)
	if err != nil {
		return err
	}
	summary := vadasa.SummarizeRisks(risks, *threshold)
	fmt.Printf("measure %s\n", m.Name())
	summary.Render(os.Stdout)
	type scored struct {
		id   int
		risk float64
	}
	var risky []scored
	for i, r := range risks {
		if r > *threshold {
			risky = append(risky, scored{d.Rows[i].ID, r})
		}
	}
	sort.Slice(risky, func(i, j int) bool {
		if risky[i].risk != risky[j].risk {
			return risky[i].risk > risky[j].risk
		}
		return risky[i].id < risky[j].id
	})
	for i, s := range risky {
		if i >= *top {
			fmt.Printf("  ... and %d more\n", len(risky)-*top)
			break
		}
		fmt.Printf("  tuple %d: risk %s\n", s.id, strconv.FormatFloat(s.risk, 'g', 4, 64))
	}
	if *impact {
		k, _ := strconv.Atoi(mo("k")) // build parsed it
		impacts, err := vadasa.AttributeImpacts(d, k, *threshold)
		if err != nil {
			return err
		}
		fmt.Println("attribute impact (risky tuples rescued when ignored):")
		for _, ai := range impacts {
			fmt.Printf("  %-24s %d -> %d (drop %d)\n", ai.Attr, ai.RiskyWith, ai.RiskyWithout, ai.Drop())
		}
	}
	return nil
}

func cmdAnonymize(args []string) error {
	fs := flag.NewFlagSet("anonymize", flag.ExitOnError)
	lf := addLoadFlags(fs)
	mo := measureFlags(fs)
	threshold := fs.Float64("threshold", 0.5, "risk threshold T")
	out := fs.String("out", "", "output CSV path (default stdout)")
	recode := fs.Bool("recode", false, "try hierarchy-based global recoding before suppression")
	explain := fs.Bool("explain", false, "print the full decision log")
	report := fs.Bool("report", false, "print a statistics-preservation (utility) report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f := vadasa.New()
	d, _, err := lf.load(f)
	if err != nil {
		return err
	}
	m, err := mo.build()
	if err != nil {
		return err
	}
	res, err := f.Anonymize(d, vadasa.CycleOptions{
		Measure:     m,
		Threshold:   *threshold,
		UseRecoding: *recode,
	})
	if err != nil {
		return err
	}
	if *report {
		rep, err := vadasa.CompareUtility(d, res.Dataset)
		if err != nil {
			return err
		}
		rep.Render(os.Stderr)
	}
	w := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	if err := vadasa.WriteCSV(w, res.Dataset); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"anonymization cycle: %d iterations, %d risky tuples, %d nulls injected, info loss %.1f%%, %d residual\n",
		res.Iterations, res.EverRisky, res.NullsInjected, 100*res.InfoLoss, len(res.Residual))
	if *explain {
		for _, dec := range res.Decisions {
			// Decision.String renders cell values as digests — the explain
			// log motivates each step without disclosing microdata.
			fmt.Fprintln(os.Stderr, " ", dec.String())
		}
	}
	return nil
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	lf := addLoadFlags(fs)
	anonPath := fs.String("anonymized", "", "attack this anonymized CSV instead of the original")
	cap := fs.Int("cap", 1000, "max oracle records per tuple")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f := vadasa.New()
	d, _, err := lf.load(f)
	if err != nil {
		return err
	}
	oracle, truth, err := vadasa.BuildOracle(d, *cap)
	if err != nil {
		return err
	}
	target := d
	if *anonPath != "" {
		file, err := os.Open(*anonPath)
		if err != nil {
			return err
		}
		defer file.Close()
		target, err = vadasa.ReadCSV(file, "anonymized", d.Attrs)
		if err != nil {
			return err
		}
	}
	res, err := oracle.Run(target, truth, 1)
	if err != nil {
		return err
	}
	fmt.Printf("oracle: %d population records for %d tuples\n", len(oracle.Records), len(d.Rows))
	fmt.Printf("expected re-identifications: %.2f of %d tuples (%.2f%%)\n",
		res.ExpectedSuccesses, len(d.Rows), 100*res.ExpectedSuccesses/float64(len(d.Rows)))
	fmt.Printf("sampled re-identifications:  %d\n", res.SampledSuccesses)
	fmt.Printf("mean blocking-set size:      %.1f\n", res.MeanBlockSize)
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	lf := addLoadFlags(fs)
	mo := measureFlags(fs)
	tuple := fs.Int("tuple", 0, "tuple id to explain (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tuple == 0 {
		return fmt.Errorf("-tuple is required")
	}
	f := vadasa.New()
	d, _, err := lf.load(f)
	if err != nil {
		return err
	}
	m, err := mo.build()
	if err != nil {
		return err
	}
	ex, err := f.ExplainRisk(d, m, *tuple)
	if err != nil {
		return err
	}
	fmt.Print(ex)
	return nil
}

func cmdReason(args []string) error {
	fs := flag.NewFlagSet("reason", flag.ExitOnError)
	program := fs.String("program", "", "path of the reasoning program (required)")
	query := fs.String("query", "", "comma-separated predicates to print (default: all derived)")
	check := fs.Bool("warded", false, "verify the wardedness restriction before running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *program == "" {
		return fmt.Errorf("-program is required")
	}
	src, err := os.ReadFile(*program)
	if err != nil {
		return err
	}
	p, err := vadasa.ParseProgram(string(src))
	if err != nil {
		return err
	}
	if *check {
		if err := vadasa.CheckWarded(p); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "program is warded")
	}
	res, err := vadasa.Reason(p, vadasa.NewFactDB(), nil)
	if err != nil {
		return err
	}
	preds := res.DB().Predicates()
	if *query != "" {
		preds = splitList(*query)
	}
	for _, pred := range preds {
		for _, fact := range res.Facts(pred) {
			fmt.Printf("%s%s\n", pred, fact)
		}
	}
	for _, v := range res.Violations {
		fmt.Fprintln(os.Stderr, v)
	}
	return nil
}

// cmdKB exports the framework's default knowledge base, or validates and
// pretty-prints an existing one.
func cmdKB(args []string) error {
	fs := flag.NewFlagSet("kb", flag.ExitOnError)
	in := fs.String("in", "", "knowledge-base JSON to validate and re-emit")
	out := fs.String("out", "", "output path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f := vadasa.New()
	if *in != "" {
		file, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := f.LoadKB(file); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "knowledge base is valid")
	}
	w := os.Stdout
	if *out != "" {
		file, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	return f.SaveKB(w)
}

// cmdInspect summarizes a microdata CSV: schema, categories, distinct
// counts, and a first risk glance.
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	lf := addLoadFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	f := vadasa.New()
	d, report, err := lf.load(f)
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: %d tuples, %d attributes\n", d.Name, len(d.Rows), len(d.Attrs))
	fmt.Printf("%-24s %-18s %9s %7s\n", "attribute", "category", "distinct", "nulls")
	for i, a := range d.Attrs {
		nulls := 0
		for _, r := range d.Rows {
			if r.Values[i].IsNull() {
				nulls++
			}
		}
		fmt.Printf("%-24s %-18s %9d %7d\n", a.Name, a.Category, len(d.DistinctValues(i)), nulls)
	}
	if len(report.Unknown) > 0 {
		fmt.Println("uncategorized attributes:", strings.Join(report.Unknown, ", "))
	}
	if len(d.QuasiIdentifiers()) > 0 {
		violating := vadasa.VerifyKAnonymity(d, 2, vadasa.MaybeMatch)
		fmt.Printf("tuples violating 2-anonymity: %d of %d\n", len(violating), len(d.Rows))
	}
	return nil
}

// cmdScorecard assesses the dataset under every registered risk measure —
// the multi-angle confidentiality scorecard reviewed before release.
func cmdScorecard(args []string) error {
	fs := flag.NewFlagSet("scorecard", flag.ExitOnError)
	lf := addLoadFlags(fs)
	threshold := fs.Float64("threshold", 0.5, "risk threshold T")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f := vadasa.New()
	d, _, err := lf.load(f)
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %8s %10s %10s %10s\n", "measure", "risky", "mean", "median", "max")
	for _, ms := range f.AssessAllRegistered(d, *threshold) {
		if ms.Err != nil {
			fmt.Printf("%-20s error: %v\n", ms.Name, ms.Err)
			continue
		}
		s := ms.Summary
		fmt.Printf("%-20s %8d %10.4g %10.4g %10.4g\n", ms.Name, s.OverThreshold, s.Mean, s.Median, s.Max)
	}
	return nil
}
