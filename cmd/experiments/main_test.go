package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"videoapp/internal/experiments"
)

// Golden reproduction manifest: SHA-256 pins of what `experiments all`
// prints and of every CSV it writes at FastConfig. The experiment tests
// check each figure's shape and trends; this pins the reproduction's bytes,
// so a refactor of the pipeline stages the figures run through cannot move
// a reported number silently. A deliberate change to an experiment, the
// codec or the store regenerates the manifest with
//
//	go test ./cmd/experiments -run TestGoldenFast -update   (make golden)
//
// and the diff of testdata/golden_fast.json is then part of the review.

var updateGoldenFast = flag.Bool("update", false, "rewrite testdata/golden_fast.json from the current code")

const goldenFastPath = "testdata/golden_fast.json"

func TestGoldenFast(t *testing.T) {
	csvDir := t.TempDir()
	var out bytes.Buffer
	if err := run(context.Background(), &out, csvDir, "all", experiments.FastConfig()); err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string {
		s := sha256.Sum256(b)
		return hex.EncodeToString(s[:])
	}
	got := map[string]string{"stdout": sum(out.Bytes())}
	csvs, err := filepath.Glob(filepath.Join(csvDir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range csvs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.Base(path)] = sum(data)
	}
	if *updateGoldenFast {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFastPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFastPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenFastPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("manifest has %d entries, the run produces %d", len(want), len(got))
	}
	for key, s := range got {
		if want[key] != s {
			t.Errorf("%s hashes to %s, manifest says %s", key, s, want[key])
		}
	}
	if t.Failed() {
		t.Logf("stdout of the run:\n%s", out.String())
	}
}

// TestRunStopsOnCancel: the context reaches every experiment, so an
// interrupted run returns the cancellation instead of finishing.
func TestRunStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := run(ctx, &out, "", "all", experiments.FastConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestRunRejectsUnknownCommand(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, "", "fig99", experiments.FastConfig()); err == nil {
		t.Fatal("unknown command accepted")
	}
}

// TestCheckConfig: a frame size the codec cannot code and a preset name the
// suite does not have are rejected before anything runs (the command exits
// 2 on them); every scale's own configuration passes.
func TestCheckConfig(t *testing.T) {
	for name, newConfig := range scales {
		if err := checkConfig(newConfig()); err != nil {
			t.Errorf("-scale %s: %v", name, err)
		}
	}
	unknown, unaligned := experiments.FastConfig(), experiments.FastConfig()
	unknown.Presets = []string{"crew_lik"}
	unaligned.W = 100
	for name, cfg := range map[string]experiments.Config{"unknown preset": unknown, "unaligned width": unaligned} {
		if err := checkConfig(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
