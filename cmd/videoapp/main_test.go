package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"videoapp"
	"videoapp/internal/obs"
)

// TestCLIValidation drives cliMain the way main does and checks the exit
// status contract: 2 for a rejected command line (flag parse or
// validation), 1 for a command that runs and fails, 0 for success. Flags
// precede the command word, as in a real invocation (the flag package
// stops parsing at the first positional argument).
func TestCLIValidation(t *testing.T) {
	garbage := filepath.Join(t.TempDir(), "garbage.vacs")
	if err := os.WriteFile(garbage, []byte("not an archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		exit   int
		stderr string // substring the diagnostic must contain; "" = any
	}{
		{
			name: "presets succeeds",
			args: []string{"presets"},
			exit: 0,
		},
		{
			name:   "serve without archive",
			args:   []string{"serve"},
			exit:   2,
			stderr: "requires -archive",
		},
		{
			name:   "scrub without archive",
			args:   []string{"scrub"},
			exit:   2,
			stderr: "requires -archive",
		},
		{
			// -in names a .y4m/.vapp input, never the archive a read command
			// operates on: one flag per decision.
			name:   "chunk without input",
			args:   []string{"-in", "x.vacs", "chunk"},
			exit:   2,
			stderr: "requires -archive",
		},
		{
			name:   "scrub does not fall back to -in",
			args:   []string{"-in", "x.vacs", "scrub"},
			exit:   2,
			stderr: "requires -archive",
		},
		{
			// flag stops parsing at the command, so a trailing flag would be
			// silently ignored; it is rejected instead.
			name:   "arguments after the command",
			args:   []string{"serve", "-archive-dir", t.TempDir()},
			exit:   2,
			stderr: "flags precede the command",
		},
		{
			name:   "bad cache-mb",
			args:   []string{"-cache-mb", "0", "-archive", "x.vacs", "serve"},
			exit:   2,
			stderr: "-cache-mb",
		},
		{
			name:   "negative prefetch",
			args:   []string{"-prefetch", "-2", "-archive", "x.vacs", "serve"},
			exit:   2,
			stderr: "-prefetch",
		},
		{
			name:   "unparseable fault profile",
			args:   []string{"-fault-profile", "transient=lots", "-archive", "x.vacs", "serve"},
			exit:   2,
			stderr: "-fault-profile",
		},
		{
			name:   "unknown flag",
			args:   []string{"-no-such-flag"},
			exit:   2,
			stderr: "flag provided but not defined",
		},
		{
			name:   "negative workers",
			args:   []string{"-workers", "-1", "presets"},
			exit:   2,
			stderr: "-workers",
		},
		{
			name:   "bad entropy coder",
			args:   []string{"-entropy", "huffman", "presets"},
			exit:   2,
			stderr: "-entropy",
		},
		{
			// One flag per decision: the -cavlc shorthand and the store
			// command's -stream selector are gone, not deprecated.
			name:   "cavlc shorthand is not a flag",
			args:   []string{"-cavlc", "presets"},
			exit:   2,
			stderr: "flag provided but not defined: -cavlc",
		},
		{
			name:   "stream selector is not a flag",
			args:   []string{"-stream", "store"},
			exit:   2,
			stderr: "flag provided but not defined: -stream",
		},
		{
			// The diagnostic lists the command table, heatmap included.
			name:   "unknown command",
			args:   []string{"frobnicate"},
			exit:   1,
			stderr: `unknown command "frobnicate" (want analyze|archive|chunk|decode|encode|gen|heatmap|info|presets|scrub|serve|store)`,
		},
		{
			name:   "serve with missing archive file",
			args:   []string{"-archive", filepath.Join(t.TempDir(), "absent.vacs"), "serve"},
			exit:   1,
			stderr: "no such file",
		},
		{
			name:   "archive-dir conflicts with archive",
			args:   []string{"-archive", "x.vacs", "-archive-dir", t.TempDir(), "serve"},
			exit:   2,
			stderr: "-archive-dir conflicts",
		},
		{
			name:   "archive-dir conflicts with mirror",
			args:   []string{"-archive-dir", t.TempDir(), "-mirror", "m.vacs", "serve"},
			exit:   2,
			stderr: "-mirror",
		},
		{
			name:   "archive-dir outside serve",
			args:   []string{"-archive-dir", t.TempDir(), "presets"},
			exit:   2,
			stderr: "only applies to the serve command",
		},
		{
			// -idle-timeout applies to every serve form, a single archive
			// included: the command line passes validation and fails only
			// at the open (exit 1, not 2).
			name:   "idle-timeout without archive-dir",
			args:   []string{"-idle-timeout", "1ns", "-archive", filepath.Join(t.TempDir(), "absent.vacs"), "serve"},
			exit:   1,
			stderr: "no such file",
		},
		{
			name:   "serve with corrupt archive file",
			args:   []string{"-archive", garbage, "serve"},
			exit:   1,
			stderr: "corrupt",
		},
		{
			name:   "serve over an empty archive dir",
			args:   []string{"-archive-dir", t.TempDir(), "serve"},
			exit:   1,
			stderr: "no *.vacs archives",
		},
		{
			name:   "negative idle-timeout",
			args:   []string{"-idle-timeout", "-1s", "-archive-dir", t.TempDir(), "serve"},
			exit:   2,
			stderr: "-idle-timeout",
		},
		{
			name:   "nonpositive frames",
			args:   []string{"-frames", "0", "presets"},
			exit:   2,
			stderr: "-frames",
		},
		{
			name:   "nonpositive dimensions",
			args:   []string{"-w", "0", "-h", "48", "presets"},
			exit:   2,
			stderr: "must be positive",
		},
		{
			name:   "width not a multiple of 16",
			args:   []string{"-w", "100", "-h", "64", "gen"},
			exit:   2,
			stderr: "multiples of 16",
		},
		{
			name:   "height not a multiple of 16",
			args:   []string{"-w", "96", "-h", "50", "-frames", "2", "store"},
			exit:   2,
			stderr: "multiples of 16",
		},
		{
			name:   "chunk-gops below one",
			args:   []string{"-chunk-gops", "0", "presets"},
			exit:   2,
			stderr: "-chunk-gops",
		},
		{
			name:   "negative chunk index",
			args:   []string{"-chunk", "-1", "-archive", "x.vacs", "chunk"},
			exit:   2,
			stderr: "-chunk",
		},
		{
			name:   "nonpositive req-timeout",
			args:   []string{"-req-timeout", "0s", "-archive", "x.vacs", "serve"},
			exit:   2,
			stderr: "-req-timeout",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			got := cliMain(tc.args, &stderr)
			if got != tc.exit {
				t.Fatalf("cliMain(%q) = %d, want %d (stderr: %s)", tc.args, got, tc.exit, stderr.String())
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stderr %q does not contain %q", stderr.String(), tc.stderr)
			}
		})
	}
}

// TestCLIEntropyFlagMatchesGoldenArchive: -entropy is the one way to pick
// the coder, and `-entropy cavlc archive` (and the cabac default) writes
// exactly the container bytes the root package's TestGoldenArchive pins for
// the same input through the library options.
func TestCLIEntropyFlagMatchesGoldenArchive(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden_archive.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key  string
		args []string
	}{
		{"CAVLC/gops=1/workers=1", []string{"-entropy", "cavlc"}},
		{"CABAC/gops=2/workers=4", []string{"-chunk-gops", "2", "-workers", "4"}},
	} {
		out := filepath.Join(t.TempDir(), "a.vacs")
		// -slices 0 is DefaultParams' value (the flag defaults to its
		// synonym 1, which the container records as written).
		args := append(tc.args, "-preset", "crew_like", "-w", "96", "-h", "64", "-frames", "16", "-gop", "4", "-slices", "0", "-o", out, "archive")
		var stderr bytes.Buffer
		if got := cliMain(args, &stderr); got != 0 {
			t.Fatalf("%v: exit %d (stderr: %s)", args, got, stderr.String())
		}
		archive, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(archive); hex.EncodeToString(sum[:]) != want[tc.key] {
			t.Fatalf("%v: archive hashes to %x, manifest %s says %s", tc.args, sum, tc.key, want[tc.key])
		}
	}
}

// TestCLICatalogRescan exercises the -archive-dir machinery beneath the
// serve command without binding a socket: the directory scan names archives
// by basename in sorted order — exactly as a single -archive is named — and
// a rescan — the SIGHUP handler's body — adds new files and removes
// vanished ones while the survivors keep serving.
func TestCLICatalogRescan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real archive")
	}
	dir := t.TempDir()
	seedPath := filepath.Join(dir, "alpha.vacs")

	var stderr bytes.Buffer
	args := []string{"-preset", "news_like", "-w", "64", "-h", "48", "-frames", "8", "-gop", "4", "-o", seedPath, "archive"}
	if got := cliMain(args, &stderr); got != 0 {
		t.Fatalf("archive: exit %d (stderr: %s)", got, stderr.String())
	}
	data, err := os.ReadFile(seedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "beta.vacs"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Non-archive files are ignored by the scan.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The single-archive form is the same spec list, of length one.
	single, err := options{archive: seedPath}.archiveSpecs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || single[0].Name != "alpha" {
		t.Fatalf("archiveSpecs(-archive) = %+v, want the one spec alpha", single)
	}

	o := options{archiveDir: dir}
	specs, err := o.archiveSpecs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "alpha" || specs[1].Name != "beta" {
		t.Fatalf("archiveSpecs = %+v, want alpha, beta", specs)
	}
	cat, err := videoapp.NewCatalog(specs)
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	// The specs open real archives lazily.
	a, err := videoapp.OpenArchive(mustOpenBackend(t, specs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumChunks() == 0 {
		t.Fatal("scanned archive has no chunks")
	}
	a.Close()

	// The SIGHUP body: beta vanishes, gamma appears.
	if err := os.Remove(filepath.Join(dir, "beta.vacs")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "gamma.vacs"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := o.rescanCatalog(cat, nil); err != nil {
		t.Fatal(err)
	}
	if names := cat.Names(); len(names) != 2 || names[0] != "alpha" || names[1] != "gamma" {
		t.Fatalf("post-rescan catalog = %v, want [alpha gamma]", names)
	}
}

func mustOpenBackend(t *testing.T, spec videoapp.ArchiveSpec) videoapp.Backend {
	t.Helper()
	b, err := spec.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// TestCLIScrubRoundTrip exercises the scrub command end to end: a clean
// archive scrubs healthy (exit 0), a corrupted copy without a mirror exits
// 1, and with a mirror the archive is repaired in place byte-for-byte.
func TestCLIScrubRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real archive")
	}
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.vacs")

	var stderr bytes.Buffer
	args := []string{"-preset", "news_like", "-w", "64", "-h", "48", "-frames", "8", "-gop", "4", "-o", clean, "archive"}
	if got := cliMain(args, &stderr); got != 0 {
		t.Fatalf("archive: exit %d (stderr: %s)", got, stderr.String())
	}

	if got := cliMain([]string{"-archive", clean, "scrub"}, &stderr); got != 0 {
		t.Fatalf("clean scrub: exit %d (stderr: %s)", got, stderr.String())
	}

	// Corrupt the tail of a copy; the last bytes are stream payload.
	data, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]byte(nil), data...)
	corrupted[len(corrupted)-1] ^= 0xFF
	damaged := filepath.Join(dir, "damaged.vacs")
	if err := os.WriteFile(damaged, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}

	stderr.Reset()
	if got := cliMain([]string{"-archive", damaged, "scrub"}, &stderr); got != 1 {
		t.Fatalf("damaged scrub without mirror: exit %d, want 1 (stderr: %s)", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unrepaired") {
		t.Fatalf("stderr %q does not report unrepaired damage", stderr.String())
	}

	stderr.Reset()
	if got := cliMain([]string{"-archive", damaged, "-mirror", clean, "scrub"}, &stderr); got != 0 {
		t.Fatalf("scrub with mirror: exit %d (stderr: %s)", got, stderr.String())
	}
	repaired, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, data) {
		t.Fatal("scrub with mirror did not restore the damaged archive byte-for-byte")
	}
}

// cancelAfterRoundTrip cancels its context when the first decode span after
// an injection ends: the storage round trip's decode, just before runStore
// measures PSNR.
type cancelAfterRoundTrip struct {
	obs.Noop
	cancel   context.CancelFunc
	injected atomic.Bool
}

func (c *cancelAfterRoundTrip) StageStart(stage string) {
	if stage == obs.StageInject {
		c.injected.Store(true)
	}
}

func (c *cancelAfterRoundTrip) StageEnd(stage string, _ time.Duration) {
	if stage == obs.StageDecode && c.injected.Load() {
		c.cancel()
	}
}

// TestStoreCancelledDuringPSNR: a cancellation that lands after the round
// trip's decode fails the PSNR pass, and runStore reports it instead of
// printing a zero PSNR and a bogus loss.
func TestStoreCancelledDuringPSNR(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = videoapp.ContextWithObserver(ctx, &cancelAfterRoundTrip{cancel: cancel})
	o := options{preset: "news_like", w: 64, h: 48, frames: 8, crf: 24, gop: 4, slices: 1, entropy: "cabac", seed: 1, workers: 1, chunkGops: 1}
	if err := runStore(ctx, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("runStore cancelled after the round trip's decode: err %v, want context.Canceled", err)
	}
}
