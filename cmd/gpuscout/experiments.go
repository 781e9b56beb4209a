package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"gpuscout/internal/experiments"
	"gpuscout/internal/sim"
)

// runExperiments is `gpuscout experiments`: it regenerates the paper's
// evaluation artifacts (§5, Figures 2/5/6/7), everything or a single
// experiment (`gpuscout experiments -h` lists the names):
//
//	gpuscout experiments -run all
//	gpuscout experiments -run fig2
//	gpuscout experiments -run all -fast      (reduced problem scales)
func runExperiments(args []string, stdout io.Writer) error {
	cfg := sim.Config{SampleSMs: 1}
	mixIters, jacobiSize, sgemmN := 96, 1024, 256
	fig6Sizes := []int{64, 128, 256, 512}

	// show prints an experiment's text, or renders its table or series.
	show := func(v any, err error) error {
		if err != nil {
			return err
		}
		if t, ok := v.(interface{ Render() string }); ok {
			v = t.Render()
		}
		fmt.Fprintln(stdout, v)
		return nil
	}

	// The experiments, in the order "all" runs them: the one list behind
	// the usage text, the validation of -run and the dispatch.
	table := []struct {
		name string
		run  func() error
	}{
		{"fig2", func() error { return show(experiments.Fig2Report()) }},
		{"fig5", func() error { return show(experiments.Fig5Report()) }},
		{"mixbench", func() error { return show(experiments.Mixbench51(mixIters, cfg)) }},
		{"jacobi", func() error { return show(experiments.Jacobi52(jacobiSize, cfg)) }},
		{"sgemm", func() error { return show(experiments.SGEMM53(sgemmN, cfg)) }},
		{"fig6", func() error { return show(experiments.Fig6Overhead(fig6Sizes, cfg)) }},
		{"compare", func() error { return show(experiments.CompareDemo()) }},
		{"ablations", func() error {
			for _, f := range []func() (*experiments.Table, error){
				func() (*experiments.Table, error) { return experiments.AblateMSHRs(512, nil, cfg) },
				func() (*experiments.Table, error) { return experiments.AblateSampling("jacobi_naive", 512, nil) },
				func() (*experiments.Table, error) { return experiments.SGEMMScaleSweep(nil, cfg) },
				func() (*experiments.Table, error) { return experiments.AblateLGQueue(nil, cfg) },
			} {
				if err := show(f()); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	names := []string{"all"}
	for _, e := range table {
		names = append(names, e.name)
	}
	valid := strings.Join(names, ", ")

	fs := flag.NewFlagSet("gpuscout experiments", flag.ExitOnError)
	which := fs.String("run", "all", "experiment: "+valid)
	fast := fs.Bool("fast", false, "reduced problem scales (quicker, same shapes)")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage text
	if *fast {
		mixIters, jacobiSize, sgemmN = 24, 512, 128
		fig6Sizes = []int{64, 128, 256}
	}
	if !slices.Contains(names, *which) {
		return usageError(fmt.Sprintf("experiments: unknown -run %q (valid: %s)", *which, valid))
	}

	for _, e := range table {
		if *which != "all" && *which != e.name {
			continue
		}
		fmt.Fprintf(stdout, "\n######## %s ########\n\n", e.name)
		if err := e.run(); err != nil {
			return fmt.Errorf("experiments: %s: %w", e.name, err)
		}
	}
	return nil
}
