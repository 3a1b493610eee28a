// Package analysis is the project's one static check, ctxfirst, and the
// zero-dependency loader it runs on (stdlib go/ast + go/types only). It
// guards the one invariant nothing else catches: a context silently detached
// from its caller compiles, passes every test and only shows when a deadline
// or a cancellation is ignored. DESIGN.md "Enforced invariants" says where
// every other rule of the tree lives — in its structure, its tests, or a
// grep in scripts/lint.sh. The cmd/vetvideoapp driver runs the check over
// ./... and is wired into `make lint` and CI.
//
// A finding can be suppressed per site with a justifying comment on the
// finding's line or the line above it:
//
//	//vetvideoapp:allow ctxfirst — deliberate detachment: the drain deadline must outlive the serve context
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

// String formats the finding as path:line:col: ctxfirst: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: ctxfirst: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
}

// Rel is String with the path made relative to root when the file lies
// under it.
func (d Diagnostic) Rel(root string) string {
	if r, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
		d.Pos.Filename = filepath.ToSlash(r)
	}
	return d.String()
}

// allowMarker introduces a suppression comment.
const allowMarker = "vetvideoapp:allow ctxfirst"

// allowedLines indexes suppression comments by file and line. A comment
// covers its own line and the line directly below it, so both trailing and
// preceding placements work.
func allowedLines(fset *token.FileSet, files []*ast.File) map[string]map[int]bool {
	allows := map[string]map[int]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), allowMarker) {
					continue
				}
				pos := fset.Position(c.Pos())
				if allows[pos.Filename] == nil {
					allows[pos.Filename] = map[int]bool{}
				}
				allows[pos.Filename][pos.Line] = true
				allows[pos.Filename][pos.Line+1] = true
			}
		}
	}
	return allows
}

// Run checks each package and returns the unsuppressed findings sorted by
// position.
func Run(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := allowedLines(pkg.Fset, pkg.Files)
		for _, d := range ctxfirst(pkg) {
			if !allows[d.Pos.Filename][d.Pos.Line] {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}
