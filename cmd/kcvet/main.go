// Command kcvet runs the module's custom static-analysis suite (see
// internal/analysis): mpisafety, determinism, floatsum, errcheck-mpi,
// lockio, hotalloc, goroutineleak and atomicmix. It exits non-zero when
// any analyzer reports a finding, so it can gate CI next to `go vet`
// and `go test -race`.
//
// Usage:
//
//	go run ./cmd/kcvet [-list] [-only a,b] [-json] [pattern ...]
//
// Patterns are directories or "./..."-style trees; the default is the
// whole module. -json renders findings as one JSON object on stdout
// (CI archives it as a build artifact); the exit status is unchanged:
// 0 clean, 2 on findings or any other failure.
//
// Findings are suppressed, with a mandatory justification, by a comment
// on (or directly above) the offending line:
//
//	//kcvet:ignore <analyzer>[,<analyzer>] <reason>
//
// Hot paths — functions whose allocation behavior hotalloc should
// police — are marked the same way:
//
//	//kcvet:hotpath <reason>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if exitStatus(err) != 0 {
		fmt.Fprintln(os.Stderr, "kcvet:", err)
	}
	os.Exit(exitStatus(err))
}

// exitStatus is the process status for run's result: 0 for a clean run,
// -list or -h; 2 for findings and every other failure.
func exitStatus(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

type jsonReport struct {
	Findings []jsonFinding `json:"findings"`
	Packages int           `json:"packages"`
	Clean    bool          `json:"clean"`
}

// run is the whole process behind main; every failure, findings and
// usage errors included, is a returned error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("kcvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	jsonOut := fs.Bool("json", false, "emit findings as JSON on stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return nil
	}

	analyzers := analysis.All()
	if *only != "" {
		var err error
		if analyzers, err = analysis.ByName(strings.Split(*only, ",")); err != nil {
			return err
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		return err
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return err
	}
	pkgs, err := loader.LoadPatterns(fs.Args())
	if err != nil {
		return err
	}

	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(stderr, "kcvet: %s: type error: %v\n", p.Path, terr)
		}
	}

	diags := analysis.Run(pkgs, analyzers)
	report := jsonReport{Findings: []jsonFinding{}, Packages: len(pkgs), Clean: len(diags) == 0}
	for _, d := range diags {
		pos := d.Pos
		if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
		if *jsonOut {
			report.Findings = append(report.Findings, jsonFinding{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		} else {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	}
	if len(diags) > 0 {
		return fmt.Errorf("%d finding(s)", len(diags))
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "kcvet: %d package(s) clean\n", len(pkgs))
	}
	return nil
}
