package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func names(as []*Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name
	}
	return out
}

func TestSelect(t *testing.T) {
	cases := []struct {
		enable, disable string
		want            []string
		wantErr         string
	}{
		{enable: "", disable: "", want: names(All())},
		{enable: "lockorder", want: []string{"lockorder"}},
		{enable: "wrapeof,lockorder", want: []string{"lockorder", "wrapeof"}},
		{disable: "ctxfirst", want: []string{"lockorder", "obsnames", "wrapeof"}},
		{enable: "lockorder", disable: "lockorder", want: nil},
		{enable: " lockorder , ", want: []string{"lockorder"}},
		{enable: "lockodrer", wantErr: "unknown analyzer"},
		{disable: "nope", wantErr: "unknown analyzer"},
	}
	for _, tc := range cases {
		got, err := Select(tc.enable, tc.disable)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Select(%q, %q) error = %v, want containing %q", tc.enable, tc.disable, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Select(%q, %q): %v", tc.enable, tc.disable, err)
			continue
		}
		if strings.Join(names(got), ",") != strings.Join(tc.want, ",") {
			t.Errorf("Select(%q, %q) = %v, want %v", tc.enable, tc.disable, names(got), tc.want)
		}
	}
}

func TestSelectErrorListsKnownAnalyzers(t *testing.T) {
	_, err := Select("typo", "")
	if err == nil {
		t.Fatal("expected error")
	}
	for _, a := range All() {
		if !strings.Contains(err.Error(), a.Name) {
			t.Errorf("error %q does not list analyzer %s", err, a.Name)
		}
	}
}

func diag(analyzer, file string, line int, msg string) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Analyzer: analyzer,
		Message:  msg,
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	root := t.TempDir()
	diags := []Diagnostic{
		diag("wrapeof", filepath.Join(root, "internal/store/x.go"), 10, "returns bare io.EOF"),
		diag("ctxfirst", filepath.Join(root, "a.go"), 3, "context.Context is parameter 1; it must be the first parameter"),
	}
	path := filepath.Join(root, "lint.baseline")
	if err := os.WriteFile(path, WriteBaseline(diags, root), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !b.Match(d, root) {
			t.Errorf("written entry did not match back: %s", d)
		}
	}
	// Same message on a different line still matches: entries are keyed
	// without line numbers so unrelated edits do not invalidate them.
	moved := diags[0]
	moved.Pos.Line = 99
	if !b.Match(moved, root) {
		t.Error("baseline entry should match regardless of line number")
	}
	if b.Match(diag("wrapeof", filepath.Join(root, "other.go"), 1, "returns bare io.EOF"), root) {
		t.Error("baseline matched a finding in a different file")
	}
	if stale := b.Stale(); len(stale) != 0 {
		t.Errorf("no entries should be stale after all matched: %v", stale)
	}
}

func TestBaselineStale(t *testing.T) {
	root := t.TempDir()
	diags := []Diagnostic{
		diag("wrapeof", filepath.Join(root, "x.go"), 1, "returns bare io.EOF"),
		diag("ctxfirst", filepath.Join(root, "y.go"), 2, "context.Context should be the first parameter"),
	}
	path := filepath.Join(root, "lint.baseline")
	if err := os.WriteFile(path, WriteBaseline(diags, root), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	b.Match(diags[0], root)
	stale := b.Stale()
	if len(stale) != 1 || !strings.Contains(stale[0], "ctxfirst") {
		t.Errorf("Stale() = %v, want the unmatched ctxfirst entry", stale)
	}
}

func TestBaselineMissingFileIsEmpty(t *testing.T) {
	b, err := ReadBaseline(filepath.Join(t.TempDir(), "absent"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Match(diag("wrapeof", "x.go", 1, "m"), "") {
		t.Error("empty baseline matched a finding")
	}
}

func TestBaselineMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lint.baseline")
	if err := os.WriteFile(path, []byte("wrapeof only-two-fields\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBaseline(path); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("ReadBaseline = %v, want malformed-entry error", err)
	}
}

func TestBaselineCommentsAndBlanksIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lint.baseline")
	body := "# header\n\n# justification: io.ReaderAt contract\nwrapeof\tx.go\treturns bare io.EOF\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Match(diag("wrapeof", "x.go", 7, "returns bare io.EOF"), "") {
		t.Error("entry after comments did not match")
	}
}
