package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"videoapp/internal/analysis"
)

var update = flag.Bool("update", false, "rewrite the golden.txt files under testdata/src")

// runFixture loads and checks one fixture module under testdata/src,
// returning findings formatted relative to the fixture root.
func runFixture(t *testing.T, dir string) []string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("abs %s: %v", dir, err)
	}
	pkgs, err := analysis.Load(abs, "./...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var lines []string
	for _, d := range analysis.Run(pkgs) {
		lines = append(lines, d.Rel(abs))
	}
	return lines
}

// TestGoldenFixtures checks every fixture module and compares the findings
// to the fixture's golden.txt. Every *_bad fixture must produce findings;
// every *_ok fixture must be clean. Regenerate the goldens with
// `go test ./internal/analysis -run TestGoldenFixtures -update`.
func TestGoldenFixtures(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixtures under testdata/src")
	}
	for _, dir := range fixtures {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			got := strings.Join(runFixture(t, dir), "\n")
			if got != "" {
				got += "\n"
			}
			goldenPath := filepath.Join(dir, "golden.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			switch {
			case strings.HasSuffix(name, "_bad") && got == "":
				t.Errorf("bad fixture %s produced no findings", name)
			case strings.HasSuffix(name, "_ok") && got != "":
				t.Errorf("ok fixture %s produced findings:\n%s", name, got)
			}
		})
	}
}

// TestSuiteCleanOnRepo checks this repository itself: the committed tree
// must be clean.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range analysis.Run(pkgs) {
		t.Errorf("unexpected finding: %s", d)
	}
}
