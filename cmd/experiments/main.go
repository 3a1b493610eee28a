// Command experiments regenerates the tables and figures of the paper's
// evaluation. Each subcommand prints one artifact; `all` runs everything.
//
// Usage:
//
//	experiments [flags] {fig3|fig8|fig9|fig10|table1|fig11|modes|ablate|all}
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

	cfg := configFor(*scale)
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

func configFor(scale string) experiments.Config {
	switch scale {
	case "fast":
		return experiments.FastConfig()
	case "paper":
		return experiments.PaperConfig()
	default:
		return experiments.DefaultConfig()
	}
}

// run executes one subcommand, printing its text rendering to out and, when
// csvDir is set, writing the raw series behind each figure there.
func run(ctx context.Context, out io.Writer, csvDir, cmd string, cfg experiments.Config) error {
	switch cmd {
	case "fig3":
		res, err := experiments.Figure3(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res)
		return saveCSV(csvDir, "fig3", res)
	case "fig8":
		res := experiments.Figure8()
		fmt.Fprintln(out, res)
		return saveCSV(csvDir, "fig8", res)
	case "fig9":
		res, err := experiments.Figure9(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res)
		return saveCSV(csvDir, "fig9", res)
	case "fig10":
		res, err := experiments.Figure10(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res)
		return saveCSV(csvDir, "fig10", res)
	case "table1":
		f10, err := experiments.Figure10(ctx, cfg)
		if err != nil {
			return err
		}
		tab := experiments.DeriveTable1(f10)
		fmt.Fprintln(out, tab)
		fmt.Fprintln(out, experiments.CompareStrategies(f10))
		return saveCSV(csvDir, "table1", tab)
	case "fig11":
		res, err := experiments.Figure11(ctx, cfg, []int{16, 20, 24}, core.PaperAssignment())
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res)
		return saveCSV(csvDir, "fig11", res)
	case "modes":
		res, err := experiments.EncryptionModes(cfg.Seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res)
	case "ablate":
		res, err := experiments.AblateEncoderOptions(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res)
	case "scrub":
		res, err := experiments.ScrubSweep(ctx, cfg, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res)
	case "all":
		for _, c := range []string{"fig8", "modes", "fig3", "fig9"} {
			fmt.Fprintf(out, "==== %s ====\n", c)
			if err := run(ctx, out, csvDir, c, cfg); err != nil {
				return fmt.Errorf("%s: %w", c, err)
			}
		}
		// Figure 10 feeds Table 1; measure it once and share.
		fmt.Fprintln(out, "==== fig10 ====")
		f10, err := experiments.Figure10(ctx, cfg)
		if err != nil {
			return fmt.Errorf("fig10: %w", err)
		}
		fmt.Fprintln(out, f10)
		if err := saveCSV(csvDir, "fig10", f10); err != nil {
			return err
		}
		fmt.Fprintln(out, "==== table1 ====")
		tab := experiments.DeriveTable1(f10)
		fmt.Fprintln(out, tab)
		fmt.Fprintln(out, experiments.CompareStrategies(f10))
		if err := saveCSV(csvDir, "table1", tab); err != nil {
			return err
		}
		for _, c := range []string{"fig11", "ablate", "scrub"} {
			fmt.Fprintf(out, "==== %s ====\n", c)
			if err := run(ctx, out, csvDir, c, cfg); err != nil {
				return fmt.Errorf("%s: %w", c, err)
			}
		}
	default:
		return fmt.Errorf("unknown command %q (want fig3|fig8|fig9|fig10|table1|fig11|modes|ablate|scrub|all)", cmd)
	}
	return nil
}
