// Command experiments regenerates the tables and figures of the paper's
// evaluation. Each subcommand prints one artifact; `all` runs everything.
//
// Usage:
//
//	experiments [flags] {fig8|modes|fig3|fig9|fig10|table1|fig11|ablate|scrub|all}
//
// The -scale flag selects fast (seconds), default (minutes) or paper
// (hours, 720p/500 frames) configurations; individual dimensions can be
// overridden with -w/-h/-frames/-runs/-crf/-presets.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"videoapp/internal/core"
	"videoapp/internal/experiments"
	"videoapp/internal/frame"
	"videoapp/internal/synth"
)

// saveCSV writes the raw series behind one figure to csvDir/name.csv; an
// empty csvDir writes nothing.
func saveCSV(csvDir, name string, r interface{ WriteCSV(w io.Writer) error }) error {
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		return err
	}
	if err := r.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	scale := flag.String("scale", "default", "experiment scale: fast, default, paper")
	w := flag.Int("w", 0, "override frame width")
	h := flag.Int("h", 0, "override frame height")
	frames := flag.Int("frames", 0, "override frame count")
	runs := flag.Int("runs", 0, "override Monte-Carlo runs")
	crf := flag.Int("crf", 0, "override CRF quality target")
	presets := flag.String("presets", "", "comma-separated preset subset")
	csv := flag.String("csv", "", "directory to write per-experiment CSV files")
	flag.Parse()

	newConfig, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: -scale %q is not fast, default or paper\n", *scale)
		os.Exit(2)
	}
	cfg := newConfig()
	if *w > 0 {
		cfg.W = *w
	}
	if *h > 0 {
		cfg.H = *h
	}
	if *frames > 0 {
		cfg.Frames = *frames
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *crf > 0 {
		cfg.CRF = *crf
	}
	if *presets != "" {
		cfg.Presets = strings.Split(*presets, ",")
	}

	if err := checkConfig(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "all"
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Stdout, *csv, cmd, cfg)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// scales are the configurations -scale selects.
var scales = map[string]func() experiments.Config{
	"fast": experiments.FastConfig, "default": experiments.DefaultConfig, "paper": experiments.PaperConfig,
}

// checkConfig rejects what the experiments cannot run: a frame size that is
// not a positive multiple of the macroblock, and a preset name the
// synthetic suite does not have (the suite would silently shrink without it).
func checkConfig(cfg experiments.Config) error {
	if cfg.W <= 0 || cfg.H <= 0 || cfg.W%frame.MBSize != 0 || cfg.H%frame.MBSize != 0 {
		return fmt.Errorf("-w %d -h %d must be positive multiples of %d", cfg.W, cfg.H, frame.MBSize)
	}
	for _, name := range cfg.Presets {
		if _, ok := synth.PresetByName(name); !ok {
			return fmt.Errorf("-presets: unknown preset %q", name)
		}
	}
	return nil
}

// session is one run of the command line. It holds what several commands
// share, so `all` encodes the base suite and measures Figure 10 (which
// Table 1 is derived from) once.
type session struct {
	ctx    context.Context
	out    io.Writer
	csvDir string
	cfg    experiments.Config
	suite  []*experiments.EncodedVideo // EncodeSuite(cfg), once a command needs it
	fig10  *experiments.Fig10Result
}

func (s *session) figure10() (*experiments.Fig10Result, error) {
	var err error
	if s.fig10 == nil {
		s.fig10, err = experiments.Figure10(s.ctx, s.cfg, s.suite)
	}
	return s.fig10, err
}

// table1 is Table 1 with the budget/conservative comparison printed under
// it; its CSV is the table's.
type table1 struct {
	*experiments.Table1Result
	comparison string
}

func (t table1) String() string { return t.Table1Result.String() + "\n" + t.comparison }

// command is one subcommand: run returns the artifact it prints, and one
// with a WriteCSV method is also saved as <name>.csv. A command that
// measures the base suite finds it in session.suite.
type command struct {
	name       string
	needsSuite bool
	run        func(s *session) (fmt.Stringer, error)
}

// commands are the subcommands in the order `all` runs them.
var commands = []command{
	{"fig8", false, func(s *session) (fmt.Stringer, error) { return experiments.Figure8(), nil }},
	{"modes", false, func(s *session) (fmt.Stringer, error) { return experiments.EncryptionModes(s.cfg.Seed) }},
	{"fig3", true, func(s *session) (fmt.Stringer, error) { return experiments.Figure3(s.ctx, s.cfg, s.suite) }},
	{"fig9", true, func(s *session) (fmt.Stringer, error) { return experiments.Figure9(s.ctx, s.cfg, s.suite) }},
	{"fig10", true, func(s *session) (fmt.Stringer, error) { return s.figure10() }},
	{"table1", true, func(s *session) (fmt.Stringer, error) {
		f10, err := s.figure10()
		if err != nil {
			return nil, err
		}
		return table1{experiments.DeriveTable1(f10), experiments.CompareStrategies(f10)}, nil
	}},
	{"fig11", true, func(s *session) (fmt.Stringer, error) {
		return experiments.Figure11(s.ctx, s.cfg, s.suite, []int{16, 20, 24}, core.PaperAssignment())
	}},
	{"ablate", false, func(s *session) (fmt.Stringer, error) { return experiments.AblateEncoderOptions(s.ctx, s.cfg) }},
	{"scrub", true, func(s *session) (fmt.Stringer, error) { return experiments.ScrubSweep(s.ctx, s.cfg, s.suite, nil) }},
}

// emit runs c, prints its artifact and saves its CSV.
func (s *session) emit(c command) error {
	if c.needsSuite && s.suite == nil {
		suite, err := experiments.EncodeSuite(s.ctx, s.cfg)
		if err != nil {
			return err
		}
		s.suite = suite
	}
	res, err := c.run(s)
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, res)
	if r, ok := res.(interface{ WriteCSV(io.Writer) error }); ok {
		return saveCSV(s.csvDir, c.name, r)
	}
	return nil
}

// run executes one subcommand, or every one in order for "all", printing
// each text rendering to out and, when csvDir is set, writing the raw
// series behind each figure there.
func run(ctx context.Context, out io.Writer, csvDir, cmd string, cfg experiments.Config) error {
	s := &session{ctx: ctx, out: out, csvDir: csvDir, cfg: cfg}
	if cmd == "all" {
		for _, c := range commands {
			fmt.Fprintf(out, "==== %s ====\n", c.name)
			if err := s.emit(c); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
		}
		return nil
	}
	var names []string
	for _, c := range commands {
		if c.name == cmd {
			return s.emit(c)
		}
		names = append(names, c.name)
	}
	return fmt.Errorf("unknown command %q (want %s|all)", cmd, strings.Join(names, "|"))
}
