package videoapp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

// Golden archive manifest: absolute SHA-256 pins of the container bytes
// Pipeline.StreamToArchive writes for one fixed synthetic input, per
// entropy coder, chunk granularity and worker count. The worker-invariance
// tests only compare runs against each other; this pins the one remaining
// container format (VACS version 2) itself, so a change to the writer, the
// record layout or anything upstream of it cannot move the bytes silently.
// A deliberate format change regenerates the manifest with
//
//	go test . -run TestGoldenArchive -update   (make golden)
//
// and the diff of testdata/golden_archive.json is then part of the review.

var updateGoldenArchive = flag.Bool("update", false, "rewrite testdata/golden_archive.json from the current code")

const goldenArchivePath = "testdata/golden_archive.json"

func TestGoldenArchive(t *testing.T) {
	seq := seqOf(t, "crew_like", 96, 64, 16)
	got := map[string]string{}
	for _, coder := range []EntropyCoder{CABAC, CAVLC} {
		for _, gops := range []int{1, 2} {
			for _, workers := range []int{1, 4} {
				params := DefaultParams()
				params.GOPSize = 4
				params.Entropy = coder
				p := NewPipeline(WithParams(params), WithChunkGOPs(gops), WithWorkers(workers))
				var buf bytes.Buffer
				if _, _, err := p.StreamToArchive(context.Background(), SequenceSource(seq), &buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				got[fmt.Sprintf("%s/gops=%d/workers=%d", coder, gops, workers)] = hex.EncodeToString(sum[:])
			}
		}
	}
	if *updateGoldenArchive {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenArchivePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenArchivePath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("manifest has %d cases, the test produces %d", len(want), len(got))
	}
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s: archive bytes hash to %s, manifest says %s", key, sum, want[key])
		}
	}
}
