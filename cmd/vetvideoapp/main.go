// Command vetvideoapp runs the project-specific static-analysis suite
// (internal/analysis) over the module: invariant checkers mined from real
// past incidents — lock-ordering inversions, bare EOF escapes, context
// conventions, observability-name drift.
// `make lint` and CI run it next to staticcheck; it needs nothing beyond
// the go tool and works fully offline.
//
// Usage:
//
//	vetvideoapp [flags] [packages]
//
// Packages default to ./... . Exit status: 0 when clean, 1 when findings
// (or the analysis itself failed), 2 on usage errors.
//
//	-list             print the analyzers and their docs, then exit
//	-enable  a,b      run only the named analyzers
//	-disable a,b      skip the named analyzers
//	-baseline FILE    baseline of grandfathered findings (default lint.baseline)
//	-write-baseline   rewrite the baseline from the current findings
//	-gen-obsnames     regenerate internal/obs/names.go from the obs constants
//	-v                also print per-package progress to stderr
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"videoapp/internal/analysis"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vetvideoapp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list          = fs.Bool("list", false, "print the analyzers and their docs, then exit")
		enable        = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable       = fs.String("disable", "", "comma-separated analyzers to skip")
		baselinePath  = fs.String("baseline", "lint.baseline", "baseline file of grandfathered findings")
		writeBaseline = fs.Bool("write-baseline", false, "rewrite the baseline from the current findings and exit")
		genObsnames   = fs.Bool("gen-obsnames", false, "regenerate internal/obs/names.go from the obs constants and exit")
		verbose       = fs.Bool("v", false, "print per-package progress to stderr")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vetvideoapp [flags] [packages]\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers, err := analysis.Select(*enable, *disable)
	if err != nil {
		fmt.Fprintf(stderr, "vetvideoapp: %v\n", err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			doc := a.Doc
			if nl := strings.IndexByte(doc, '\n'); nl >= 0 {
				doc = doc[:nl]
			}
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, doc)
		}
		return 0
	}

	if *genObsnames {
		return genObsnamesMain(stdout, stderr)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(analysis.LoadConfig{}, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "vetvideoapp: %v\n", err)
		return 1
	}
	if *verbose {
		for _, p := range pkgs {
			fmt.Fprintf(stderr, "vetvideoapp: analyzing %s\n", p.ImportPath)
		}
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "vetvideoapp: %v\n", err)
		return 1
	}

	cwd, _ := os.Getwd()
	if *writeBaseline {
		body := analysis.WriteBaseline(diags, cwd)
		if err := os.WriteFile(*baselinePath, body, 0o644); err != nil {
			fmt.Fprintf(stderr, "vetvideoapp: writing baseline: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "vetvideoapp: wrote %d grandfathered finding(s) to %s\n", len(diags), *baselinePath)
		return 0
	}

	baseline, err := analysis.ReadBaseline(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "vetvideoapp: %v\n", err)
		return 1
	}
	fresh := 0
	for _, d := range diags {
		if baseline.Match(d, cwd) {
			continue
		}
		fresh++
		pos := d.Pos
		file := pos.Filename
		if cwd != "" {
			if r, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(r, "..") {
				file = r
			}
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", filepath.ToSlash(file), pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	for _, stale := range baseline.Stale() {
		fmt.Fprintf(stderr, "vetvideoapp: stale baseline entry (finding fixed? delete it): %s\n", stale)
	}
	if fresh > 0 {
		fmt.Fprintf(stderr, "vetvideoapp: %d finding(s)\n", fresh)
		return 1
	}
	return 0
}

// genObsnamesMain regenerates internal/obs/names.go from the obs package's
// Stage*/Ctr*/Gauge* constants.
func genObsnamesMain(stdout, stderr io.Writer) int {
	pkgs, err := analysis.Load(analysis.LoadConfig{}, "./internal/obs")
	if err != nil {
		fmt.Fprintf(stderr, "vetvideoapp: %v\n", err)
		return 1
	}
	if len(pkgs) != 1 {
		fmt.Fprintf(stderr, "vetvideoapp: expected exactly one package for ./internal/obs, got %d\n", len(pkgs))
		return 1
	}
	out := filepath.Join(pkgs[0].Dir, "names.go")
	if err := os.WriteFile(out, analysis.ObsNamesSource(pkgs[0].Types), 0o644); err != nil {
		fmt.Fprintf(stderr, "vetvideoapp: writing %s: %v\n", out, err)
		return 1
	}
	fmt.Fprintf(stdout, "vetvideoapp: wrote %s\n", out)
	return 0
}
