// Command becauselint runs BeCAUSe's project-specific static analyzers:
// machine-checked enforcement of the determinism, RNG-discipline,
// observability and lock-discipline contracts the reproducibility
// harness depends on.
//
//	becauselint ./...             lint the whole module
//	becauselint -json ./...       machine-readable findings
//	becauselint -sarif ./...      SARIF 2.1.0 log (GitHub code scanning)
//	becauselint -list             describe the analyzers
//	becauselint -write-wire-lock  regenerate wire.lock from the source
//
// A finding can be suppressed — with justification — by a
//
//	//lint:allow <analyzer> <reason>
//
// comment on the flagged line or the line directly above it. Directives
// that no longer suppress anything are reported as findings themselves.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"because/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("becauselint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log instead of text")
	list := fs.Bool("list", false, "describe the analyzers and exit")
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	writeWireLock := fs.Bool("write-wire-lock", false, "regenerate wire.lock from the current JSON wire surface and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *writeWireLock {
		cwd, err := os.Getwd()
		if err != nil {
			fmt.Fprintf(stderr, "becauselint: %v\n", err)
			return 2
		}
		path, err := lint.WriteWireLock(cwd)
		if err != nil {
			fmt.Fprintf(stderr, "becauselint: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "becauselint: wrote %s\n", path)
		return 0
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer, len(analyzers))
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*lint.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "becauselint: unknown analyzer %q (see -list)\n", strings.TrimSpace(name))
				return 2
			}
			picked = append(picked, a)
		}
		analyzers = picked
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "becauselint: %v\n", err)
		return 2
	}
	diags, err := lint.Run(cwd, patterns, lint.Options{
		Analyzers: analyzers,
		RelTo:     cwd,
	})
	if err != nil {
		fmt.Fprintf(stderr, "becauselint: %v\n", err)
		return 2
	}
	switch {
	case *sarifOut:
		out, err := lint.ToSARIF(diags, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "becauselint: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, string(out))
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "becauselint: %v\n", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(stdout, "becauselint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
