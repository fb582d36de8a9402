// Command earlbench regenerates the paper's evaluation figures (§6) on
// the simulated cluster and prints each as an aligned table. Run a
// single figure by name or everything:
//
//	earlbench all
//	earlbench fig2a fig2b fig3 fig5 fig6 fig7 fig8 fig9 fig9ablation fig10
//	earlbench appendixa ablation-sketch ablation-ssabe ablation-pipeline ablation-jackknife
//
// Flags:
//
//	-seed N         deterministic seed (default 1)
//	-records N      laptop-scale measurement size where applicable
//	-quick          smaller measurement sizes (CI-friendly)
//	-parallelism N  resampling worker-pool size (0 = GOMAXPROCS,
//	                1 = sequential engine); tables are identical for a
//	                fixed seed at any value
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	seed := flag.Uint64("seed", 1, "deterministic seed")
	records := flag.Int("records", 1<<20, "laptop-scale record count for measured runs")
	quick := flag.Bool("quick", false, "use smaller measurement sizes")
	parallelism := flag.Int("parallelism", 0, "resampling worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	experiments.Parallelism = *parallelism
	recs := *records
	if *quick {
		recs = 1 << 17
	}
	figs := []fig{
		{"fig2a", func() (*experiments.Table, error) { return experiments.Fig2a(*seed) }},
		{"fig2b", func() (*experiments.Table, error) { return experiments.Fig2b(*seed) }},
		{"fig3", func() (*experiments.Table, error) { return experiments.Fig3(*seed) }},
		{"fig5", func() (*experiments.Table, error) { return experiments.Fig5(recs, *seed) }},
		{"fig6", func() (*experiments.Table, error) { return experiments.Fig6(recs/2, *seed) }},
		{"fig7", func() (*experiments.Table, error) { return experiments.Fig7(recs/5, *seed) }},
		{"fig8", func() (*experiments.Table, error) { return experiments.Fig8(*seed) }},
		{"fig9", func() (*experiments.Table, error) { return experiments.Fig9(recs/2, *seed) }},
		{"fig9ablation", func() (*experiments.Table, error) { return experiments.Fig9Ablation(recs/4, *seed) }},
		{"fig10", func() (*experiments.Table, error) { return experiments.Fig10(*seed) }},
		{"appendixa", func() (*experiments.Table, error) { return experiments.AppendixA(*seed) }},
		{"ablation-sketch", func() (*experiments.Table, error) { return experiments.AblationSketchC(*seed) }},
		{"ablation-ssabe", func() (*experiments.Table, error) { return experiments.AblationSSABE(*seed) }},
		{"ablation-pipeline", func() (*experiments.Table, error) { return experiments.AblationPipeline(recs/4, *seed) }},
		{"ablation-jackknife", func() (*experiments.Table, error) { return experiments.AblationJackknife(*seed) }},
	}

	args := flag.Args()
	if len(args) == 0 {
		usage(figs)
		os.Exit(2)
	}
	want := map[string]bool{}
	for _, a := range args {
		if a == "all" {
			for _, f := range figs {
				want[f.name] = true
			}
			continue
		}
		want[a] = true
	}
	known := map[string]bool{}
	for _, f := range figs {
		known[f.name] = true
	}
	for name := range want {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", name)
			usage(figs)
			os.Exit(2)
		}
	}

	exit := 0
	for _, f := range figs {
		if !want[f.name] {
			continue
		}
		start := time.Now()
		table, err := f.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, err)
			exit = 1
			continue
		}
		table.Fprint(os.Stdout)
		fmt.Printf("(%s regenerated in %.2fs)\n", f.name, time.Since(start).Seconds())
	}
	os.Exit(exit)
}

type fig struct {
	name string
	run  func() (*experiments.Table, error)
}

func usage(figs []fig) {
	fmt.Fprintln(os.Stderr, "usage: earlbench [-seed N] [-records N] [-quick] <figure>... | all")
	fmt.Fprint(os.Stderr, "figures:")
	for _, f := range figs {
		fmt.Fprintf(os.Stderr, " %s", f.name)
	}
	fmt.Fprintln(os.Stderr)
}
