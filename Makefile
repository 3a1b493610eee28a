GO ?= go

.PHONY: check build build-windows build-arm64 test test-386 race purego golden golden-check bench bench-smoke bench-selftest serve-smoke chaos-smoke fmt fmt-check vet lint

# check is the full verification gate: formatting, vet, lint (staticcheck
# when installed, vetvideoapp and the lint greps), build, race-enabled tests, a
# one-iteration compile-and-run pass over the benchmarks so the perf
# harness cannot rot, end-to-end smokes of the chunk server (clean and
# under injected faults), and the self-tests of the performance ledger in
# bench/ (its own module, so `go test ./...` here does not reach it). Tests
# run shuffled so inter-test ordering dependencies cannot hide. golden-check
# names the bit-exactness gate explicitly (the race pass runs it too): the
# absolute decode, archive-bytes, reproduction and synthesis manifests and
# the seed corpora of the
# fuzz targets of every layer that handles payload bits (bitio, entropy,
# core, store, codec) and of the sample kernels (quality, transform) — the
# differential targets that hold the word-wide bit layer, the windowed
# arithmetic coder and the SSE2 kernels to their oracles among them. purego
# re-runs the suites of every package with an assembly kernel, and the codec
# suite with its golden manifest, on the portable Go forms, which an amd64
# machine otherwise never builds; it also runs the chunk server's suite on
# heap-allocated cache buffers, and build-windows compiles the module for a
# non-unix system, so neither fallback can rot. test-386 runs the suite
# where int has 32 bits and build-arm64 compiles the module for a second
# 64-bit architecture, so the bits the goldens pin cannot come to depend on
# the platform's word size.
check: fmt-check vet lint build build-windows build-arm64 test-386 golden-check purego race bench-smoke bench-selftest serve-smoke chaos-smoke

build:
	$(GO) build ./...

# build-windows cross-compiles the module for windows/amd64 (no network, no
# cgo): the build where internal/offheap hands out heap slices instead of
# memory mappings, and any unix-only call would fail to link.
build-windows:
	GOOS=windows GOARCH=amd64 $(GO) build ./...

# build-arm64 cross-compiles the module for linux/arm64: the portable Go
# forms of the sample kernels, which purego runs on amd64, built for a
# machine without the assembly.
build-arm64:
	GOARCH=arm64 $(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs both gates via scripts/lint.sh: staticcheck when a binary is on
# PATH (skipped with a notice otherwise, so the gate needs no network; CI
# installs the pinned version first) and vetvideoapp — the ctxfirst check in
# internal/analysis — with the greps beside it (obs names, `Deprecated:`
# markers, the purego line), which need nothing beyond the go tool and
# always run. Run one gate alone with `./scripts/lint.sh staticcheck` or
# `./scripts/lint.sh vetvideoapp`.
lint:
	./scripts/lint.sh

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# test-386 runs the whole suite at GOARCH=386, where int is 32 bits: a
# uint32 from the bitstream or a container header that becomes an int
# before its range check is negative there, and the decode, the archive
# verdicts and the four golden manifests must come out the same as on a
# 64-bit machine. It asks two questions apart. Does bitio's test binary
# compile for 386? If not, the gate fails. Does this host execute it? If
# not, the gate says why, builds the module for 386 and vets it, which
# type-checks every test file, instead of running the suite.
test-386:
	@probe=$$(mktemp -d) && trap 'rm -rf "$$probe"' EXIT && \
	GOARCH=386 $(GO) test -c -o "$$probe/bitio.test" ./internal/bitio && \
	if "$$probe/bitio.test" -test.run '^$$' >"$$probe/out" 2>&1; then \
		echo "GOARCH=386 $(GO) test -count=1 ./..."; GOARCH=386 $(GO) test -count=1 ./...; \
	else \
		echo "test-386: this host cannot execute 386 binaries:"; cat "$$probe/out"; \
		echo "test-386: falling back to GOARCH=386 $(GO) build ./... and GOARCH=386 $(GO) vet ./..."; \
		GOARCH=386 $(GO) build ./... && GOARCH=386 $(GO) vet ./...; \
	fi

# purego builds every package with an assembly kernel without it (the
# build-time selections of DESIGN "Build-selected sample kernels":
# predict's SAD rows, quality's squared error, transform's 4×4 kernels) and
# runs their kernel-equivalence tests and the codec suite — golden decode
# manifest included — on the portable Go forms, so the path every other
# GOARCH uses cannot rot on an amd64-only CI. The same tag selects
# internal/offheap's heap buffers over memory mappings (DESIGN "The serve
# cache lives off the GC heap"), so it runs that package's, y4m's (the views
# the chunk server decodes into) and the chunk server's suites on the
# fallback too. `scripts/lint.sh vetvideoapp`
# fails when a package holding a *_amd64.s is missing from this line.
purego:
	$(GO) test -tags purego -count=1 ./internal/predict ./internal/quality ./internal/transform ./internal/codec ./internal/y4m ./internal/offheap ./internal/serve

# golden-check runs the codec's decode differential over its golden corpus
# (TestDecode*MatchesReference and TestReplayEqualsParseGolden: every
# production decode route vs the sample-at-a-time reference decoder kept in
# reference_test.go) and verifies the golden decode manifest
# (TestGoldenDecode, internal/codec/testdata/golden_decode.json:
# SHA-256 of bitstreams, decoded planes — clean, bit-flipped, truncated,
# layered — and Reanalyze records), checks that the decoder reproduces the
# encoder's reconstructions of the corpus, encoded on a frame pool stocked
# with poisoned frames, sample for sample
# (TestDecodedMatchesEncoderReconstruction, TestFramePoolPoisoned: well
# under a second), and replays the seed corpora of the codec fuzz targets,
# among them the differential FuzzDecodeVsReference; then the seed corpora
# of the fuzz targets below the codec — FuzzCopyBitsMatchesReference and
# FuzzReadUEMatchesReference (bitio), FuzzArithDecoderMatchesReference,
# FuzzArithEncoderMatchesReference and FuzzResidualBlockMatchesPerSymbol
# (entropy), the pivot-table and archive parsers (core, store) — which hold
# the word-wide forms to the per-bit oracles in the oracle_test.go files —
# and FuzzSquaredErrorMatchesScalar (quality),
# FuzzReconstructAddMatchesReference and FuzzForwardQuantizeMatchesUnfused
# (transform), which hold the sample kernels to their scalar forms;
# then the golden archive manifest (testdata/golden_archive.json: SHA-256 of
# the VACS container bytes Pipeline.StreamToArchive writes, per entropy
# coder, chunk granularity and worker count); then the golden reproduction
# manifest (cmd/experiments/testdata/golden_fast.json: SHA-256 of the text
# and every CSV `experiments all` produces at FastConfig); last the golden
# synthesis manifest (internal/synth/testdata/golden_synth.json: SHA-256 of
# the Y, Cb and Cr planes synth.Generate renders for all 14 presets at
# 96x64x12, 320x176x30 and one 1280x720 frame), the input every other
# manifest starts from.
golden-check:
	$(GO) test -count=1 -run 'TestGoldenDecode|TestDecode.*MatchesReference|TestReplayEqualsParseGolden|TestDecodedMatchesEncoderReconstruction|TestFramePoolPoisoned|^Fuzz' ./internal/codec
	$(GO) test -count=1 -run '^Fuzz' ./internal/bitio ./internal/entropy ./internal/core ./internal/store ./internal/quality ./internal/transform
	$(GO) test -count=1 -run TestGoldenArchive .
	$(GO) test -count=1 -run TestGoldenFast ./cmd/experiments
	$(GO) test -count=1 -run TestGenerateGolden ./internal/synth

# golden regenerates the four manifests from the current code. This is the
# one procedure for a DELIBERATE bitstream, reconstruction, container-format,
# experiment or synthetic-content change: run it, review the diff of
# golden_decode.json, golden_archive.json, golden_fast.json and
# golden_synth.json, commit it with the change. A refactor or an
# optimisation must leave all four files untouched.
golden:
	$(GO) test -count=1 -run TestGoldenDecode ./internal/codec -update
	$(GO) test -count=1 -run TestGoldenArchive . -update
	$(GO) test -count=1 -run TestGoldenFast ./cmd/experiments -update
	$(GO) test -count=1 -run TestGenerateGolden ./internal/synth -update

fmt:
	gofmt -l -w .

# fmt-check fails (listing the offenders) when any file is not
# gofmt-formatted; `make fmt` rewrites them in place.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi

# bench runs the measured hot-kernel benchmarks (SAD/motion search on the
# frame and on a padded reference/intra decision, error injection, archive chunk read and append, clone/pooling,
# chunk encode and decode, the fused transform kernels, PSNR, bit-range copy,
# arithmetic coder and residual-block routines, synthetic frame rendering) plus the pipeline-level
# parallel benches and the heap a processed video retains, with allocation reporting. Compare two runs with
# scripts/benchcmp.sh old.txt new.txt (CHANGES.md holds the committed
# before/after of every optimization pass). These are the numbers a
# kernel change iterates on; whole-system claims — ingest, Monte-Carlo and
# the serve path, hot and cold — are measured by the ledger,
# `bash bench/run.sh` (bench/README.md).
bench:
	$(GO) test -run='^$$' -bench='BenchmarkSAD|BenchmarkSADEdge|BenchmarkMotionSearch|BenchmarkMotionSearchPadded|BenchmarkIntraDecision' -benchmem ./internal/predict
	$(GO) test -run='^$$' -bench='BenchmarkInject|BenchmarkReadChunk|BenchmarkAppendChunk' -benchmem ./internal/store
	$(GO) test -run='^$$' -bench='BenchmarkClone|BenchmarkEncodeChunk|BenchmarkDecodeChunk' -benchmem ./internal/codec
	$(GO) test -run='^$$' -bench='BenchmarkForwardQuantize|BenchmarkReconstructAdd' -benchmem ./internal/transform
	$(GO) test -run='^$$' -bench='BenchmarkPSNR' -benchmem ./internal/quality
	$(GO) test -run='^$$' -bench='BenchmarkCopyRows' -benchmem ./internal/frame
	$(GO) test -run='^$$' -bench='BenchmarkCopyBits' -benchmem ./internal/bitio
	$(GO) test -run='^$$' -bench='BenchmarkArith|BenchmarkResidualBlock' -benchmem ./internal/entropy
	$(GO) test -run='^$$' -bench='BenchmarkFlipIID' -benchmem ./internal/sim
	$(GO) test -run='^$$' -bench='BenchmarkGenerateQCIFFrame' -benchmem ./internal/synth
	$(GO) test -run='^$$' -bench='BenchmarkParallelStore|BenchmarkParallelPipeline|BenchmarkPipelineRetained' -benchmem .

# serve-smoke is the end-to-end gate of the serving path: build the CLI,
# archive a synthetic video, start `videoapp serve`, fetch the index, one
# decoded chunk and /metrics over HTTP, require that a sequential reader is
# warmed by readahead and a non-sequential one triggers none, then SIGINT
# and require a clean drained exit (results/serve_bench.md holds the
# chunk-path numbers).
serve-smoke:
	./scripts/serve_smoke.sh

# chaos-smoke is the end-to-end gate of the fault-tolerant read path: serve
# a deliberately corrupted archive under a seeded deterministic fault
# profile and require zero 5xx responses, with the damage surfaced as
# degraded (X-Videoapp-Degraded + serve_chunk_degraded) instead of errors.
chaos-smoke:
	./scripts/chaos_smoke.sh

# bench-smoke compiles and runs the kernel, pipeline, streaming and cold-chunk
# (internal/serve: parse vs replay) benchmarks exactly once — a regression
# gate for the perf harness itself, cheap enough for check/CI.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/predict ./internal/transform ./internal/quality ./internal/frame ./internal/store ./internal/codec ./internal/entropy ./internal/sim ./internal/bitio ./internal/core ./internal/serve ./internal/synth
	$(GO) test -run='^$$' -bench='BenchmarkParallel|BenchmarkPipeline|BenchmarkStream' -benchtime=1x .

# bench-selftest vets and tests the performance ledger (bench/, the module
# BENCHMARK.json runs): its self-tests re-archive through the pipeline and
# compare bytes, so a pipeline change that breaks the harness's
# byte-identity checks fails here, before the benchmark gate does.
bench-selftest:
	(cd bench && $(GO) vet ./... && $(GO) test ./...)
