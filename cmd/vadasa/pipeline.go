package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"vadasa"
)

// PipelineConfig is the declarative job description for `vadasa pipeline`: a
// data officer versions this file next to the knowledge base and the
// reasoning programs, and the release process becomes one reproducible
// command.
type PipelineConfig struct {
	// Input CSV path (header row required).
	Input string `json:"input"`
	// KB optionally loads a knowledge base before anything else.
	KB string `json:"kb,omitempty"`
	// Overrides force attribute categories: maps of attribute names.
	Identifiers    []string `json:"identifiers,omitempty"`
	Quasi          []string `json:"quasiIdentifiers,omitempty"`
	WeightAttr     string   `json:"weightAttribute,omitempty"`
	NonIdentifying []string `json:"nonIdentifying,omitempty"`
	// EstimateWeights, when positive, synthesizes sampling weights as
	// scale × combination frequency.
	EstimateWeights float64 `json:"estimateWeights,omitempty"`
	// Measure selects the risk measure (default k-anonymity).
	Measure   string  `json:"measure,omitempty"`
	K         int     `json:"k,omitempty"`
	MSU       int     `json:"msu,omitempty"`
	Sensitive string  `json:"sensitive,omitempty"`
	TBound    float64 `json:"t,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	// UseRecoding prepends hierarchy-based global recoding.
	UseRecoding bool `json:"useRecoding"`
	// Output is the anonymized CSV path (required).
	Output string `json:"output"`
	// DecisionLog and Report are optional artifact paths.
	DecisionLog string `json:"decisionLog,omitempty"`
	Report      string `json:"report,omitempty"`
	// ValidateAttack runs the oracle attack before and after and fails
	// the pipeline if anonymization did not reduce expected successes.
	ValidateAttack bool `json:"validateAttack"`
}

func cmdPipeline(args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ExitOnError)
	configPath := fs.String("config", "", "pipeline JSON config (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("-config is required")
	}
	raw, err := os.ReadFile(*configPath)
	if err != nil {
		return err
	}
	var cfg PipelineConfig
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return fmt.Errorf("parsing %s: %w", *configPath, err)
	}
	return runPipeline(cfg, os.Stderr)
}

// runPipeline executes the job; progress goes to log.
func runPipeline(cfg PipelineConfig, logw io.Writer) error {
	if cfg.Input == "" || cfg.Output == "" {
		return fmt.Errorf("pipeline: input and output are required")
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.5
	}

	f := vadasa.New()
	if cfg.KB != "" {
		kbFile, err := os.Open(cfg.KB)
		if err != nil {
			return err
		}
		err = f.LoadKB(kbFile)
		kbFile.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(logw, "pipeline: loaded knowledge base %s\n", cfg.KB)
	}

	d, report, err := loadCSV(f, cfg.Input, overrideMap(cfg.Identifiers, cfg.Quasi, cfg.WeightAttr), cfg.EstimateWeights)
	if err != nil {
		return err
	}
	for _, n := range cfg.NonIdentifying {
		i := d.AttrIndex(n)
		if i < 0 {
			return fmt.Errorf("pipeline: no attribute %q", n)
		}
		d.Attrs[i].Category = vadasa.NonIdentifying
	}
	fmt.Fprintf(logw, "pipeline: loaded %d tuples, %d quasi-identifiers, %d unknown attributes\n",
		len(d.Rows), len(d.QuasiIdentifiers()), len(report.Unknown))

	m, err := measureOpts(cfg.measureParam).build()
	if err != nil {
		return err
	}

	var oracle *vadasa.IdentityOracle
	var truth map[int]string
	var before *vadasa.AttackResult
	if cfg.ValidateAttack {
		oracle, truth, err = vadasa.BuildOracle(d, 500)
		if err != nil {
			return err
		}
		before, err = oracle.Run(d, truth, 1)
		if err != nil {
			return err
		}
	}

	res, err := f.Anonymize(d, vadasa.CycleOptions{
		Measure: m, Threshold: cfg.Threshold, UseRecoding: cfg.UseRecoding,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "pipeline: %d iterations, %d nulls injected, %d residual\n",
		res.Iterations, res.NullsInjected, len(res.Residual))

	outFile, err := os.Create(cfg.Output)
	if err != nil {
		return err
	}
	if err := vadasa.WriteCSV(outFile, res.Dataset); err != nil {
		outFile.Close()
		return err
	}
	if err := outFile.Close(); err != nil {
		return err
	}

	if cfg.DecisionLog != "" {
		logFile, err := os.Create(cfg.DecisionLog)
		if err != nil {
			return err
		}
		for _, dec := range res.Decisions {
			// Decision.String digests cell values; the decision log is an
			// operational artifact, not a second copy of the microdata.
			fmt.Fprintln(logFile, dec.String())
		}
		if err := logFile.Close(); err != nil {
			return err
		}
	}
	if cfg.Report != "" {
		rep, err := vadasa.CompareUtility(d, res.Dataset)
		if err != nil {
			return err
		}
		repFile, err := os.Create(cfg.Report)
		if err != nil {
			return err
		}
		rep.Render(repFile)
		if err := repFile.Close(); err != nil {
			return err
		}
	}

	if cfg.ValidateAttack {
		after, err := oracle.Run(res.Dataset, truth, 1)
		if err != nil {
			return err
		}
		fmt.Fprintf(logw, "pipeline: expected re-identifications %.2f -> %.2f\n",
			before.ExpectedSuccesses, after.ExpectedSuccesses)
		if after.ExpectedSuccesses > before.ExpectedSuccesses {
			return fmt.Errorf("pipeline: attack validation failed: expected successes rose %.2f -> %.2f",
				before.ExpectedSuccesses, after.ExpectedSuccesses)
		}
	}
	fmt.Fprintf(logw, "pipeline: wrote %s\n", cfg.Output)
	return nil
}

// measureParam reads the config's measure parameters the way a flag lookup
// would; a field left out of the file (zero) selects the parameter's default.
func (cfg PipelineConfig) measureParam(key string) string {
	v := map[string]string{
		"measure":   cfg.Measure,
		"sensitive": cfg.Sensitive,
		"k":         strconv.Itoa(cfg.K),
		"msu":       strconv.Itoa(cfg.MSU),
		"t":         strconv.FormatFloat(cfg.TBound, 'g', -1, 64),
	}[key]
	if v == "0" {
		return ""
	}
	return v
}
