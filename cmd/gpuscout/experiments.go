package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"gpuscout/internal/experiments"
)

// runExperiments is `gpuscout experiments`: it regenerates the paper's
// evaluation artifacts (§5, Figures 2/5/6/7), everything or a single
// experiment (`gpuscout experiments -h` lists the names):
//
//	gpuscout experiments -run all
//	gpuscout experiments -run fig2
//	gpuscout experiments -run all -fast      (reduced problem scales)
func runExperiments(args []string, stdout io.Writer) error {
	names := []string{"all"}
	for _, e := range experiments.List {
		names = append(names, e.Name)
	}
	valid := strings.Join(names, ", ")

	fs := flag.NewFlagSet("gpuscout experiments", flag.ExitOnError)
	which := fs.String("run", "all", "experiment: "+valid)
	fast := fs.Bool("fast", false, "reduced problem scales (quicker, same shapes)")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage text
	if !slices.Contains(names, *which) {
		return usageError(fmt.Sprintf("experiments: unknown -run %q (valid: %s)", *which, valid))
	}

	for _, e := range experiments.List {
		if *which != "all" && *which != e.Name {
			continue
		}
		fmt.Fprintf(stdout, "\n######## %s ########\n\n", e.Name)
		text, err := e.Run(*fast)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", e.Name, err)
		}
		fmt.Fprintln(stdout, text)
	}
	return nil
}
