// Command vetvideoapp runs the project's static check, ctxfirst
// (internal/analysis), over the module: a context.Context parameter comes
// first, and library code never mints a root context that would detach its
// work from the caller's cancellation. `make lint` and CI run it next to
// staticcheck and the greps of scripts/lint.sh; it needs nothing beyond the
// go tool and works fully offline.
//
// Usage:
//
//	vetvideoapp [packages]
//
// Packages default to ./... . Exit status: 0 when clean, 1 when findings
// (or the analysis itself failed), 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"videoapp/internal/analysis"
)

func main() {
	os.Exit(cliMain(os.Args[1:], os.Stdout, os.Stderr))
}

func cliMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vetvideoapp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: vetvideoapp [packages]") }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pkgs, err := analysis.Load("", fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "vetvideoapp: %v\n", err)
		return 1
	}
	diags := analysis.Run(pkgs)
	cwd, _ := os.Getwd()
	for _, d := range diags {
		fmt.Fprintln(stdout, d.Rel(cwd))
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "vetvideoapp: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
