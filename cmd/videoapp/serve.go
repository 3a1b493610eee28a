package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"videoapp"
	"videoapp/internal/faultio"
	"videoapp/internal/y4m"
)

// faultPolicy maps the read-path flags onto a FaultPolicy; zero fields
// resolve to the library defaults.
func (o options) faultPolicy() videoapp.FaultPolicy {
	return videoapp.FaultPolicy{MaxRetries: o.readRetries, BreakerThreshold: o.breakerThreshold}
}

// openBackend opens path as the storage backend of the read path: a file
// backend, wrapped in the -fault-profile injector when one is configured.
// writable opens the file read-write so scrub can repair it in place. A
// serving catalog calls it anew on every lazy (re)open, so the injector's
// fault sequence restarts from its seed each time.
func (o options) openBackend(path string, writable bool) (videoapp.Backend, error) {
	b, err := videoapp.OpenFileBackend(path, writable)
	if err != nil || o.faults == nil {
		return b, err
	}
	return faultio.Wrap(b, *o.faults), nil
}

// mirrorOption returns the -mirror copy as an archive option — none without
// the flag — for recovery and scrub repair. The returned closer releases the
// mirror.
func (o options) mirrorOption() ([]videoapp.ArchiveOption, func() error, error) {
	if o.mirror == "" {
		return nil, func() error { return nil }, nil
	}
	m, err := os.Open(o.mirror)
	if err != nil {
		return nil, nil, err
	}
	return []videoapp.ArchiveOption{videoapp.WithMirror(m)}, m.Close, nil
}

// openArchive is the direct open of the -archive file (chunk, scrub, the
// serve pre-flight): over openBackend, under the flag policy and the mirror.
// The returned closer releases the archive, its backend and the mirror.
func (o options) openArchive(writable bool) (*videoapp.ChunkArchive, func() error, error) {
	opts, closeMirror, err := o.mirrorOption()
	if err != nil {
		return nil, nil, err
	}
	b, err := o.openBackend(o.archive, writable)
	if err != nil {
		closeMirror()
		return nil, nil, err
	}
	a, err := videoapp.OpenArchive(b, append(opts, videoapp.WithArchivePolicy(o.faultPolicy()))...)
	if err != nil {
		b.Close()
		closeMirror()
		return nil, nil, err
	}
	return a, func() error {
		a.Close()
		err := b.Close()
		closeMirror()
		return err
	}, nil
}

func runChunk(ctx context.Context, o options) error {
	a, closeArchive, err := o.openArchive(false)
	if err != nil {
		return err
	}
	defer closeArchive()
	info, err := a.Info(o.chunkIdx)
	if err != nil {
		return err
	}
	cr, err := a.ReadChunkContext(ctx, o.chunkIdx)
	if err != nil {
		return err
	}
	if len(cr.Degraded) > 0 {
		// A round trip of a zero-filled stream would report damage the
		// archive already had; `scrub` is the command for a damaged chunk.
		return fmt.Errorf("chunk %d: %w: streams %v failed verification", o.chunkIdx, videoapp.ErrCorruptRecord, cr.Degraded)
	}
	v, parts := cr.Video, cr.Parts
	fmt.Printf("chunk %d/%d: frames %d..%d, %d payload bytes\n",
		o.chunkIdx, a.NumChunks(), info.FirstFrame, info.FirstFrame+info.Frames-1, info.Length)
	p := videoapp.NewPipeline(append(o.pipelineOptions(), videoapp.WithParams(v.Params))...)
	dec, flips, err := p.RoundTripChunk(ctx, v, parts, info.FirstFrame, o.seed)
	if err != nil {
		return err
	}
	fmt.Printf("round trip: %d residual bit errors in this chunk\n", flips)
	if o.out != "" {
		return writeOut(o.out, func(f *os.File) error { return y4m.Write(f, dec) })
	}
	return nil
}

func runScrub(ctx context.Context, o options) error {
	// Open read-write so damaged regions can be repaired in place when a
	// -mirror is attached.
	a, closeArchive, err := o.openArchive(o.mirror != "")
	if err != nil {
		return err
	}
	defer closeArchive()
	rep, err := a.Scrub(ctx)
	if err != nil {
		return err
	}
	for _, h := range rep.Chunks {
		if len(h.Damaged) == 0 {
			continue
		}
		fmt.Printf("chunk %d: %d/%d regions damaged %v, repaired %v\n",
			h.Index, len(h.Damaged), h.Regions, h.Damaged, h.Repaired)
	}
	fmt.Printf("scrubbed %d chunks: %d damaged regions, %d repaired\n",
		len(rep.Chunks), rep.Damaged, rep.Repaired)
	if !rep.Healthy() {
		return fmt.Errorf("archive has %d unrepaired damaged regions", rep.Damaged-rep.Repaired)
	}
	return nil
}

// serveOptions maps the serve flags 1:1 onto the catalog options; the
// catalog opens every archive under the flag policy.
func (o options) serveOptions() []videoapp.ServeOption {
	opts := []videoapp.ServeOption{
		videoapp.WithCacheBytes(int64(o.cacheMB) << 20),
		videoapp.WithServeWorkers(o.workers),
		videoapp.WithRequestTimeout(o.reqTimeout),
		videoapp.WithIdleTimeout(o.idleTime),
		videoapp.WithFaultPolicy(o.faultPolicy()),
		videoapp.WithPrefetch(o.prefetch),
	}
	if o.trace != nil {
		opts = append(opts, videoapp.WithServeObserver(o.trace))
	}
	return opts
}

// archiveSpecs returns one spec per served archive, named by basename: the
// single -archive file, or every *.vacs file of -archive-dir in sorted
// order. Each opens over openBackend under archOpts.
func (o options) archiveSpecs(archOpts []videoapp.ArchiveOption) ([]videoapp.ArchiveSpec, error) {
	var paths []string
	if o.archiveDir == "" {
		paths = []string{o.archive}
	} else {
		entries, err := os.ReadDir(o.archiveDir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".vacs") {
				paths = append(paths, filepath.Join(o.archiveDir, e.Name()))
			}
		}
	}
	specs := make([]videoapp.ArchiveSpec, len(paths))
	for i, path := range paths {
		specs[i] = videoapp.ArchiveSpec{
			Name:    strings.TrimSuffix(filepath.Base(path), ".vacs"),
			Open:    func() (videoapp.Backend, error) { return o.openBackend(path, false) },
			Options: archOpts,
		}
	}
	return specs, nil
}

// rescanCatalog diffs the served archives (archiveSpecs) against the
// catalog's current members: vanished archives are removed (their cached
// chunks purged), new files added. Archives present on both sides are left
// untouched — they keep serving and keep their cache entries.
func (o options) rescanCatalog(cat *videoapp.Catalog, archOpts []videoapp.ArchiveOption) error {
	specs, err := o.archiveSpecs(archOpts)
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, s := range specs {
		want[s.Name] = true
	}
	have := map[string]bool{}
	for _, name := range cat.Names() {
		if want[name] {
			have[name] = true
		} else if cat.Remove(name) == nil {
			fmt.Printf("rescan: removed archive %q\n", name)
		}
	}
	for _, s := range specs {
		if have[s.Name] {
			continue
		}
		if err := cat.Add(s); err != nil {
			fmt.Printf("rescan: skipping %q: %v\n", s.Name, err)
			continue
		}
		fmt.Printf("rescan: added archive %q\n", s.Name)
	}
	return nil
}

// serveCatalog is the serve command: a lazily-opened catalog over the
// -archive file or every .vacs file of -archive-dir, rescanned on SIGHUP.
func serveCatalog(ctx context.Context, o options) error {
	archOpts, closeMirror, err := o.mirrorOption()
	if err != nil {
		return err
	}
	defer closeMirror()
	specs, err := o.archiveSpecs(archOpts)
	if err != nil {
		return err
	}
	var what string // what the "serving ... on" line announces
	switch {
	case o.archiveDir == "":
		// One named file must be servable before the port opens: index it
		// once now, so a missing or corrupt archive exits 1 instead of
		// answering every request with an error. (A directory member that
		// fails to open costs only its own requests.)
		a, closeArchive, err := o.openArchive(false)
		if err != nil {
			return err
		}
		what = fmt.Sprintf("%s (%d chunks, %d frames)", o.archive, a.NumChunks(), a.TotalFrames())
		closeArchive()
	case len(specs) == 0:
		return fmt.Errorf("no *.vacs archives in %s", o.archiveDir)
	default:
		what = fmt.Sprintf("%d archives from %s", len(specs), o.archiveDir)
	}
	cat, err := videoapp.NewCatalog(specs, o.serveOptions()...)
	if err != nil {
		return err
	}
	defer cat.Close()

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-hup:
				if err := o.rescanCatalog(cat, archOpts); err != nil {
					fmt.Printf("rescan: %v\n", err)
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %s on http://%s\n", what, l.Addr())
	err = cat.Serve(ctx, l)
	if o.metrics {
		// Fold the server's aggregates into the -metrics report.
		fmt.Println("-- serve metrics --")
		cat.Metrics().Snapshot().WriteText(os.Stdout)
	}
	fmt.Println("server drained, exiting")
	return err
}
