// Command bgplint runs the repository's determinism, program-contract, and
// hot-path analyzers (internal/lint) over the given package patterns, in the
// style of a go/analysis multichecker:
//
//	go run ./cmd/bgplint ./...            # the whole module (CI gate)
//	go run ./cmd/bgplint ./internal/shm   # one package
//	go run ./cmd/bgplint -only maporder ./...
//	go run ./cmd/bgplint -json ./...
//	go run ./cmd/bgplint -as bgpcoll/internal/coll ./internal/lint/testdata/progframe_bad
//
// Exit status: 0 when no error-severity findings (advisories alone do not
// fail the gate), 1 when error findings were reported, 2 on load/type-check
// failure. Findings are suppressed per line with
//
//	//bgplint:allow <rule>[,<rule>...] -- <justification>
//
// annotations, which are themselves audited (see internal/lint).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bgpcoll/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	asPath := flag.String("as", "", "analyze a single directory argument under this import path (fixture mode)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: bgplint [-only names] [-json] [-as importpath] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			sev := a.Severity
			if sev == "" {
				sev = lint.SevError
			}
			fmt.Printf("%-18s [%s] %s\n", a.Name, sev, a.Doc)
		}
		return
	}
	if *only != "" {
		var sel []*lint.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fatalf("bgplint: unknown analyzer %q", name)
			}
			sel = append(sel, a)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatalf("bgplint: %v", err)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fatalf("bgplint: %v", err)
	}

	var diags []lint.Diagnostic
	if *asPath != "" {
		if len(patterns) != 1 {
			fatalf("bgplint: -as takes exactly one directory argument")
		}
		pkg, err := loader.LoadFixture(patterns[0], *asPath)
		if err != nil {
			fatalf("bgplint: %v", err)
		}
		diags, err = lint.Run(pkg, analyzers)
		if err != nil {
			fatalf("bgplint: %v", err)
		}
	} else {
		diags = runPatterns(loader, analyzers, patterns)
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags, loader.Root); err != nil {
			fatalf("bgplint: %v", err)
		}
	} else {
		for _, d := range diags {
			if d.Severity == lint.SevAdvisory {
				fmt.Printf("%s [advisory]\n", d)
			} else {
				fmt.Println(d)
			}
		}
	}

	errors, advisories := 0, 0
	for _, d := range diags {
		if d.Severity == lint.SevAdvisory {
			advisories++
		} else {
			errors++
		}
	}
	if errors+advisories > 0 {
		fmt.Fprintf(os.Stderr, "bgplint: %d error finding(s), %d advisory\n", errors, advisories)
	}
	if errors > 0 {
		os.Exit(1)
	}
}

// runPatterns analyzes every package directory the patterns expand to.
func runPatterns(loader *lint.Loader, analyzers []*lint.Analyzer, patterns []string) []lint.Diagnostic {
	dirs, err := loader.Dirs(patterns)
	if err != nil {
		fatalf("bgplint: %v", err)
	}
	var diags []lint.Diagnostic
	for _, dir := range dirs {
		pkgs, err := loader.LoadDir(dir)
		if err != nil {
			fatalf("bgplint: %v", err)
		}
		for _, pkg := range pkgs {
			ds, err := lint.Run(pkg, analyzers)
			if err != nil {
				fatalf("bgplint: %v", err)
			}
			diags = append(diags, ds...)
		}
	}
	return diags
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
