// Package lint is a diagnostics-grade static analyzer for Vadalog programs.
//
// Where the engine reports the first fatal problem it trips over at
// evaluation time (a stratification error, an unwarded rule), lint runs a
// registry of independent passes over a parsed *datalog.Program and returns
// every finding as a structured, position-tagged Diagnostic with a stable
// code (VL001, VL002, …), a severity, and optional related positions. That
// is what lets the SDC program library be audited ahead of execution: a
// broken risk or anonymization program is caught before it burns a
// multi-hour job, and an uploaded program can be rejected with an exact,
// machine-readable explanation.
//
// Three source-level directives tune the analysis (written as `%` comments,
// so they are invisible to the parser):
//
//	% vadalint:input tuple qiord        extensional predicates (silences VL005)
//	% vadalint:output riskout           result predicates (silences VL004)
//	% vadalint:allow VL003 reason...    suppress codes on the next line
//	p(X) :- q(X). % vadalint:allow VL004   …or on the same line
//	% vadalint:allow-file VL008         suppress codes for the whole file
package lint

import (
	"fmt"
	"sort"
	"strings"

	"vadasa/internal/datalog"
)

// Severity ranks a diagnostic. Only SeverityError makes a program invalid;
// warnings flag likely bugs, infos flag notable-but-intentional constructs
// (existential variables, for instance).
type Severity uint8

// Severities, ordered from least to most severe.
const (
	SeverityInfo Severity = iota
	SeverityWarn
	SeverityError
)

func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarn:
		return "warn"
	case SeverityError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// MarshalText renders the severity for JSON output.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the textual form, so API clients can round-trip
// diagnostics.
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "info":
		*s = SeverityInfo
	case "warn":
		*s = SeverityWarn
	case "error":
		*s = SeverityError
	default:
		return fmt.Errorf("lint: unknown severity %q", b)
	}
	return nil
}

// Pos locates a diagnostic in program source. Line and Col are 1-based; Col
// is zero when only the line is known (programs built programmatically).
type Pos struct {
	File string `json:"file,omitempty"`
	Line int    `json:"line"`
	Col  int    `json:"col,omitempty"`
}

func (p Pos) String() string {
	file := p.File
	if file == "" {
		file = "<program>"
	}
	if p.Col > 0 {
		return fmt.Sprintf("%s:%d:%d", file, p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}

// Related points at a secondary position that explains a diagnostic — the
// first use of a predicate an arity clash contradicts, for example.
type Related struct {
	Pos     Pos    `json:"pos"`
	Message string `json:"message"`
}

// Diagnostic is one finding: position, severity, stable code, message, and
// any related positions.
type Diagnostic struct {
	Pos      Pos       `json:"pos"`
	Severity Severity  `json:"severity"`
	Code     string    `json:"code"`
	Message  string    `json:"message"`
	Related  []Related `json:"related,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s %s: %s", d.Pos, d.Severity, d.Code, d.Message)
}

// FormatText renders a diagnostic for terminal output, related positions
// indented beneath it.
func FormatText(d Diagnostic) string {
	var b strings.Builder
	b.WriteString(d.String())
	for _, rel := range d.Related {
		fmt.Fprintf(&b, "\n\t%s: %s", rel.Pos, rel.Message)
	}
	return b.String()
}

// Options tune an analysis run. The zero value lints with no declared
// extensional or output predicates and no suppressed codes.
type Options struct {
	// File names the program in diagnostic positions.
	File string
	// Inputs lists extensional predicates: expected to have no deriving
	// rule (silences VL005 for them).
	Inputs []string
	// Outputs lists result predicates: expected to be derived but unused
	// (silences VL004 for them).
	Outputs []string
	// Allow suppresses the listed diagnostic codes everywhere.
	Allow []string
}

// Check lints a parsed program. Directive comments are not visible on a
// parsed program; callers holding source text should prefer Source, which
// honours them.
func Check(p *datalog.Program, opts *Options) []Diagnostic {
	var o Options
	if opts != nil {
		o = *opts
	}
	return run(p, o, nil)
}

// Source lints program text: it applies the vadalint directive comments,
// parses, and runs every pass. A parse failure is returned as a single
// VL000 diagnostic rather than an error, so broken programs flow through
// the same reporting pipeline as lint findings.
func Source(file, src string, opts *Options) []Diagnostic {
	_, diags := Parse(file, src, opts)
	return diags
}

// Parse is Source that also returns the parsed program (nil if it does not parse).
func Parse(file, src string, opts *Options) (*datalog.Program, []Diagnostic) {
	var o Options
	if opts != nil {
		o = *opts
	}
	o.File = file
	dir := scanDirectives(src)
	o.Inputs = append(o.Inputs, dir.inputs...)
	o.Outputs = append(o.Outputs, dir.outputs...)
	o.Allow = append(o.Allow, dir.allowFile...)

	prog, err := datalog.Parse(src)
	if err != nil {
		return nil, []Diagnostic{parseDiagnostic(file, err)}
	}
	return prog, run(prog, o, dir.allowLines)
}

// run is one analysis of a parsed program: every pass, then the suppressed
// codes dropped — everywhere, and on the lines of allowLines — and the rest
// sorted by position.
func run(p *datalog.Program, o Options, allowLines map[int]map[string]bool) []Diagnostic {
	c := &pctx{
		prog:    p,
		file:    o.File,
		inputs:  toSet(o.Inputs),
		outputs: toSet(o.Outputs),
		deps:    datalog.AnalyzeDependencies(p),
		ward:    datalog.WardViolations(p),
	}
	for _, pass := range passes {
		pass.run(c)
	}
	diags := filterAllowed(c.diags, toSet(o.Allow), allowLines)
	sortDiagnostics(diags)
	return diags
}

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == SeverityError {
			return true
		}
	}
	return false
}

// Error carries the full diagnostic list across an error return — the 422
// payload a server hands back for a rejected program upload.
type Error struct {
	Diagnostics []Diagnostic
}

func (e *Error) Error() string {
	n := 0
	var first *Diagnostic
	for i := range e.Diagnostics {
		if e.Diagnostics[i].Severity == SeverityError {
			if first == nil {
				first = &e.Diagnostics[i]
			}
			n++
		}
	}
	if first == nil {
		return "lint: no errors"
	}
	if n == 1 {
		return fmt.Sprintf("lint: %s", first)
	}
	return fmt.Sprintf("lint: %s (and %d more errors)", first, n-1)
}

// Preflight validates a parsed program the way an engine front door should:
// it returns nil when no error-severity diagnostics are found, and a *Error
// carrying every diagnostic (warnings and infos included, for context)
// otherwise.
func Preflight(p *datalog.Program) error {
	diags := Check(p, nil)
	if HasErrors(diags) {
		return &Error{Diagnostics: diags}
	}
	return nil
}

// parseDiagnostic converts a parser error into the VL000 diagnostic. The
// parser prefixes errors with "datalog: line N:", which is recovered for
// the position.
func parseDiagnostic(file string, err error) Diagnostic {
	msg := err.Error()
	line := 1
	if rest, ok := strings.CutPrefix(msg, "datalog: "); ok {
		msg = rest
		if after, ok := strings.CutPrefix(msg, "line "); ok {
			if i := strings.Index(after, ":"); i > 0 {
				if _, serr := fmt.Sscanf(after[:i], "%d", &line); serr == nil {
					msg = strings.TrimSpace(after[i+1:])
				}
			}
		}
	}
	return Diagnostic{
		Pos:      Pos{File: file, Line: line},
		Severity: SeverityError,
		Code:     CodeSyntax,
		Message:  msg,
	}
}

type directives struct {
	inputs     []string
	outputs    []string
	allowFile  []string
	allowLines map[int]map[string]bool // line -> suppressed codes
}

// scanDirectives extracts vadalint directive comments. A `vadalint:allow`
// on a comment-only line suppresses the codes on the following line; when
// it trails code, it suppresses them on its own line.
func scanDirectives(src string) directives {
	d := directives{allowLines: make(map[int]map[string]bool)}
	for i, raw := range strings.Split(src, "\n") {
		lineNo := i + 1
		ci := strings.Index(raw, "%")
		if ci < 0 {
			continue
		}
		comment := strings.TrimSpace(raw[ci+1:])
		comment = strings.TrimLeft(comment, "% ") // tolerate %% and padding
		if !strings.HasPrefix(comment, "vadalint:") {
			continue
		}
		rest := strings.TrimPrefix(comment, "vadalint:")
		fields := strings.FieldsFunc(rest, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' })
		if len(fields) == 0 {
			continue
		}
		verb, args := fields[0], fields[1:]
		switch verb {
		case "input":
			d.inputs = append(d.inputs, args...)
		case "output":
			d.outputs = append(d.outputs, args...)
		case "allow-file":
			d.allowFile = append(d.allowFile, codesOf(args)...)
		case "allow":
			target := lineNo
			if strings.TrimSpace(raw[:ci]) == "" {
				target = lineNo + 1 // comment-only line guards the next one
			}
			set := d.allowLines[target]
			if set == nil {
				set = make(map[string]bool)
				d.allowLines[target] = set
			}
			for _, c := range codesOf(args) {
				set[c] = true
			}
		}
	}
	return d
}

// codesOf keeps the leading VLxxx-shaped arguments: everything after the
// first non-code word is free-text justification.
func codesOf(args []string) []string {
	var out []string
	for _, a := range args {
		if !strings.HasPrefix(a, "VL") {
			break
		}
		out = append(out, a)
	}
	return out
}

func filterAllowed(diags []Diagnostic, allow map[string]bool, byLine map[int]map[string]bool) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if allow[d.Code] {
			continue
		}
		if set, ok := byLine[d.Pos.Line]; ok && set[d.Code] {
			continue
		}
		out = append(out, d)
	}
	return out
}

func sortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}

func toSet(ss []string) map[string]bool {
	if len(ss) == 0 {
		return nil
	}
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}
