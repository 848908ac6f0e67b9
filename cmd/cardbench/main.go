// Command cardbench regenerates the tables and figures of the paper's
// evaluation section (§V) at a configurable scale.
//
// Usage:
//
//	cardbench -exp table1|fig2|fig3|fig4|fig5|fig6|table2|all [flags]
//
// Flags:
//
//	-scale f     dataset scale factor relative to Table I (default 0.01)
//	-seed n      master seed (default 1)
//	-mbits n     sketch memory in bits (default: 5e8 × scale, the paper's M)
//	-m n         virtual sketch size for CSE/vHLL (default 1024)
//	-delta f     super-spreader threshold at paper scale (default 5e-5)
//	-datasets s  comma-separated subset of: sanjose,chicago,twitter,flickr,orkut,livejournal
//	-methods s   comma-separated subset of: FreeBS,FreeRS,CSE,vHLL,LPC,HLL++
//	-csv         emit CSV instead of aligned text
//
// Each experiment prints the same rows/series the paper reports.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cardbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cardbench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: table1|fig2|fig3|fig4|fig5|fig6|table2|all")
		scale    = fs.Float64("scale", 0.01, "dataset scale factor")
		seed     = fs.Uint64("seed", 1, "master seed")
		mbits    = fs.Int("mbits", 0, "sketch memory in bits (0 = 5e8 x scale)")
		m        = fs.Int("m", 1024, "virtual sketch size for CSE/vHLL")
		delta    = fs.Float64("delta", 5e-5, "super-spreader threshold at paper scale")
		datasets = fs.String("datasets", "", "comma-separated dataset subset")
		methods  = fs.String("methods", "", "comma-separated method subset")
		csv      = fs.Bool("csv", false, "emit CSV")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{
		Scale:      *scale,
		Seed:       *seed,
		MemoryBits: *mbits,
		VirtualM:   *m,
		Delta:      *delta,
	}
	if *datasets != "" {
		cfg.Datasets = splitList(*datasets)
	}
	if *methods != "" {
		cfg.Methods = splitList(*methods)
	}

	type runner struct {
		name string
		run  func(experiments.Config) (*metrics.Table, error)
	}
	runners := []runner{
		{"table1", wrap(experiments.RunTable1)},
		{"fig2", wrap(experiments.RunFig2)},
		{"fig3", wrap(experiments.RunFig3)},
		{"fig4", wrap(experiments.RunFig4)},
		{"fig5", wrap(experiments.RunFig5)},
		{"fig6", wrap(experiments.RunFig6)},
		{"table2", wrap(experiments.RunTable2)},
	}

	selected := runners[:0:0]
	for _, r := range runners {
		if *exp == "all" || *exp == r.name {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	for _, r := range selected {
		start := time.Now()
		table, err := r.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		if *csv {
			if err := table.WriteCSV(out); err != nil {
				return err
			}
		} else {
			if _, err := table.WriteTo(out); err != nil {
				return err
			}
			fmt.Fprintf(out, "[%s completed in %v]\n\n", r.name, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}

// tabler is any experiment result that renders itself.
type tabler interface{ Table() *metrics.Table }

// wrap adapts a typed runner to the generic table-producing signature.
func wrap[R tabler](f func(experiments.Config) (R, error)) func(experiments.Config) (*metrics.Table, error) {
	return func(c experiments.Config) (*metrics.Table, error) {
		res, err := f(c)
		if err != nil {
			return nil, err
		}
		return res.Table(), nil
	}
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
