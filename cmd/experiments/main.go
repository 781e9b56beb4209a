// Command experiments regenerates the paper's evaluation artifacts
// (§5, Figures 2/5/6/7). Run everything or a single experiment
// (`experiments -h` lists the names):
//
//	experiments -run all
//	experiments -run fig2
//	experiments -run all -fast      (reduced problem scales)
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"gpuscout/internal/experiments"
	"gpuscout/internal/sim"
)

// show prints an experiment's text; render prints its table or series.
func show(text string, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(text)
	return nil
}

func render[T interface{ Render() string }](t T, err error) error {
	if err != nil {
		return err
	}
	fmt.Println(t.Render())
	return nil
}

func main() {
	cfg := sim.Config{SampleSMs: 1}
	mixIters, jacobiSize, sgemmN := 96, 1024, 256
	fig6Sizes := []int{64, 128, 256, 512}

	// The experiments, in the order "all" runs them: the one list behind
	// the usage text, the validation of -run and the dispatch.
	table := []struct {
		name string
		run  func() error
	}{
		{"fig2", func() error { return show(experiments.Fig2Report()) }},
		{"fig5", func() error { return show(experiments.Fig5Report()) }},
		{"mixbench", func() error { return render(experiments.Mixbench51(mixIters, cfg)) }},
		{"jacobi", func() error { return render(experiments.Jacobi52(jacobiSize, cfg)) }},
		{"sgemm", func() error { return render(experiments.SGEMM53(sgemmN, cfg)) }},
		{"fig6", func() error { return render(experiments.Fig6Overhead(fig6Sizes, cfg)) }},
		{"compare", func() error { return show(experiments.CompareDemo()) }},
		{"ablations", func() error {
			for _, f := range []func() (*experiments.Table, error){
				func() (*experiments.Table, error) { return experiments.AblateMSHRs(512, nil, cfg) },
				func() (*experiments.Table, error) { return experiments.AblateSampling("jacobi_naive", 512, nil) },
				func() (*experiments.Table, error) { return experiments.SGEMMScaleSweep(nil, cfg) },
				func() (*experiments.Table, error) { return experiments.AblateLGQueue(nil, cfg) },
			} {
				if err := render(f()); err != nil {
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

	which := flag.String("run", "all", "experiment: "+valid)
	fast := flag.Bool("fast", false, "reduced problem scales (quicker, same shapes)")
	flag.Parse()
	if *fast {
		mixIters, jacobiSize, sgemmN = 24, 512, 128
		fig6Sizes = []int{64, 128, 256}
	}
	if !slices.Contains(names, *which) {
		fmt.Fprintf(os.Stderr, "experiments: unknown -run %q (valid: %s)\n", *which, valid)
		os.Exit(2)
	}

	for _, e := range table {
		if *which != "all" && *which != e.name {
			continue
		}
		fmt.Printf("\n######## %s ########\n\n", e.name)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
}
