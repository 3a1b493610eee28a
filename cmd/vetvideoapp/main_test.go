package main

import (
	"bytes"
	"os"
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
		{name: "lockorder findings", dir: fixture(t, "lockorder_bad"), args: []string{"./..."}, wantCode: 1},
		{name: "unknown flag", dir: fixture(t, "ctxfirst_ok"), args: []string{"-no-such-flag"}, wantCode: 2},
		{name: "unknown analyzer", dir: fixture(t, "ctxfirst_ok"), args: []string{"-enable", "nope", "./..."}, wantCode: 2},
		{name: "unknown analyzer in disable", dir: fixture(t, "ctxfirst_ok"), args: []string{"-disable", "nope", "./..."}, wantCode: 2},
		{name: "disabled analyzer silences findings", dir: fixture(t, "ctxfirst_bad"), args: []string{"-disable", "ctxfirst", "./..."}, wantCode: 0},
		{name: "enable scopes to one analyzer", dir: fixture(t, "ctxfirst_bad"), args: []string{"-enable", "lockorder", "./..."}, wantCode: 0},
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

func TestListPrintsEveryAnalyzer(t *testing.T) {
	code, stdout, _ := run(t, fixture(t, "ctxfirst_ok"), "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"ctxfirst", "lockorder", "obsnames", "wrapeof"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, stdout)
		}
	}
}

func TestListHonorsEnable(t *testing.T) {
	code, stdout, _ := run(t, fixture(t, "ctxfirst_ok"), "-list", "-enable", "wrapeof")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if !strings.Contains(stdout, "wrapeof") || strings.Contains(stdout, "lockorder") {
		t.Errorf("-list -enable wrapeof should print only wrapeof:\n%s", stdout)
	}
}

func TestFindingsFormat(t *testing.T) {
	code, stdout, stderr := run(t, fixture(t, "ctxfirst_bad"), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "pipeline.go:9:27: ctxfirst: context.Context is parameter 1") {
		t.Errorf("findings not in file:line:col: analyzer: message form:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing findings summary:\n%s", stderr)
	}
}

// TestBaselineWorkflow exercises the adoption path: write a baseline over a
// dirty tree, rerun clean against it, then watch a stale entry get reported
// once the finding disappears.
func TestBaselineWorkflow(t *testing.T) {
	dir := fixture(t, "ctxfirst_bad")
	base := filepath.Join(t.TempDir(), "lint.baseline")

	code, stdout, stderr := run(t, dir, "-baseline", base, "-write-baseline", "./...")
	if code != 0 {
		t.Fatalf("write-baseline exit = %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "grandfathered finding(s)") {
		t.Errorf("write-baseline output unexpected:\n%s", stdout)
	}

	code, stdout, stderr = run(t, dir, "-baseline", base, "./...")
	if code != 0 {
		t.Errorf("baselined run exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}

	// Scope down to an analyzer with no findings in this fixture: every
	// baselined ctxfirst entry is now stale and must be reported on stderr.
	code, _, stderr = run(t, dir, "-baseline", base, "-enable", "lockorder", "./...")
	if code != 0 {
		t.Errorf("scoped run exit = %d, want 0", code)
	}
	if !strings.Contains(stderr, "stale baseline entry") {
		t.Errorf("stale entries not reported:\n%s", stderr)
	}
}

func TestMalformedBaselineFails(t *testing.T) {
	dir := fixture(t, "ctxfirst_ok")
	base := filepath.Join(t.TempDir(), "lint.baseline")
	if err := os.WriteFile(base, []byte("not a valid entry\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := run(t, dir, "-baseline", base, "./...")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "malformed") {
		t.Errorf("stderr missing malformed-baseline error:\n%s", stderr)
	}
}

// TestGenObsnames regenerates the registry for the obsnames_ok fixture into
// a scratch copy and checks the generated file round-trips.
func TestGenObsnames(t *testing.T) {
	// Copy the fixture so -gen-obsnames never rewrites checked-in testdata.
	src := fixture(t, "obsnames_ok")
	dir := t.TempDir()
	for _, rel := range []string{"go.mod", "obs/obs.go", "app/app.go"} {
		data, err := os.ReadFile(filepath.Join(src, rel))
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The generator targets ./internal/obs; the fixture keeps obs at ./obs,
	// so move it where the generator looks.
	if err := os.MkdirAll(filepath.Join(dir, "internal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "obs"), filepath.Join(dir, "internal", "obs")); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "app")); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := run(t, dir, "-gen-obsnames")
	if code != 0 {
		t.Fatalf("gen-obsnames exit = %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "names.go") {
		t.Errorf("gen-obsnames output unexpected:\n%s", stdout)
	}
	data, err := os.ReadFile(filepath.Join(dir, "internal", "obs", "names.go"))
	if err != nil {
		t.Fatal(err)
	}
	gen := string(data)
	if !strings.HasPrefix(gen, "// Code generated by vetvideoapp -gen-obsnames; DO NOT EDIT.") {
		t.Errorf("generated file missing header:\n%s", gen)
	}
	for _, ident := range []string{"CtrFrames", "GaugeOpen", "StageDecode"} {
		if !strings.Contains(gen, ident) {
			t.Errorf("generated registry missing %s:\n%s", ident, gen)
		}
	}
}
