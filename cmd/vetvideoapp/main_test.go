package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// fixture returns the absolute path of an internal/analysis testdata module.
func fixture(t *testing.T, name string) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// run invokes the CLI in dir and returns (exit code, stdout, stderr).
func run(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	t.Chdir(dir)
	var stdout, stderr bytes.Buffer
	code := cliMain(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestExitCodes pins the documented contract: 0 clean, 1 findings or
// analysis failure, 2 usage errors.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name     string
		dir      string
		args     []string
		wantCode int
	}{
		{name: "clean fixture", dir: fixture(t, "ctxfirst_ok"), args: []string{"./..."}, wantCode: 0},
		{name: "findings", dir: fixture(t, "ctxfirst_bad"), args: []string{"./..."}, wantCode: 1},
		{name: "unknown flag", dir: fixture(t, "ctxfirst_ok"), args: []string{"-no-such-flag"}, wantCode: 2},
		{name: "nonexistent pattern", dir: fixture(t, "ctxfirst_ok"), args: []string{"./no/such/pkg"}, wantCode: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := run(t, tc.dir, tc.args...)
			if code != tc.wantCode {
				t.Errorf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.wantCode, stdout, stderr)
			}
		})
	}
}

func TestFindingsFormat(t *testing.T) {
	code, stdout, stderr := run(t, fixture(t, "ctxfirst_bad"))
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "pipeline.go:9:27: ctxfirst: context.Context is parameter 1") {
		t.Errorf("findings not in file:line:col: ctxfirst: message form:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing findings summary:\n%s", stderr)
	}
}
