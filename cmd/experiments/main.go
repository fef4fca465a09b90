// Command experiments regenerates the paper's evaluation artifacts:
//
//	experiments -fig 10            # Figure 10 (BSMA speedups)
//	experiments -fig 12a           # Figure 12a (varying diff size)
//	experiments -fig 12b           # Figure 12b (varying joins)
//	experiments -fig 12c           # Figure 12c (varying selectivity)
//	experiments -fig 12d           # Figure 12d (varying fanout)
//	experiments -table 2           # eq. (1) validation (Table 2 model)
//	experiments -table 3           # eq. (2) validation (Table 3 model)
//	experiments -steps             # one many-views BSMA round, step by step
//	experiments -scripts           # the Δ-scripts of those views
//	experiments -all               # everything
//
// -scale and -users control dataset sizes (defaults keep a full run in
// tens of seconds; raise them on beefier machines to approach the paper's
// ratios more closely).
package main

import (
	"flag"
	"fmt"
	"os"

	"idivm/internal/bsma"
	"idivm/internal/harness"
	"idivm/internal/workload"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 10 | 12a | 12b | 12c | 12d | crossover")
	table := flag.String("table", "", "table/model to validate: 2 | 3")
	steps := flag.Bool("steps", false, "print one round of the eleven BSMA views in one system as a table: view, step, rows, accesses, µs")
	scripts := flag.Bool("scripts", false, "print the Δ-script of each of the eleven BSMA views and exit")
	all := flag.Bool("all", false, "run every experiment")
	scale := flag.Int("scale", 4000, "parts/devices count for the Figure 12 sweeps")
	users := flag.Int("users", 400, "user count for the Figure 10 workload")
	csv := flag.Bool("csv", false, "emit CSV instead of text tables")
	flag.Parse()

	if *scripts {
		if err := harness.FprintScripts(os.Stdout, bsma.Defaults(*users)); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	if !*all && *fig == "" && *table == "" && !*steps {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*fig, *table, *all, *steps, *scale, *users, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// crossoverDs picks diff sizes spanning well past the expected crossover.
func crossoverDs(scale int) []int {
	return []int{scale / 40, scale / 10, scale / 4, scale / 2, scale}
}

func run(fig, table string, all, steps bool, scale, users int, csv bool) error {
	base := workload.Defaults(scale)
	base.Devices = scale

	if all || steps {
		fmt.Println("== One round, step by step: the eight Figure 10 views and the three city views in one system ==")
		reports, err := harness.RunSteps(bsma.Defaults(users))
		if err != nil {
			return err
		}
		harness.FprintSteps(os.Stdout, reports)
		fmt.Println()
	}

	if all || fig == "10" {
		fmt.Println("== Figure 10: speedup of ID-based over tuple-based IVM, BSMA views ==")
		p := bsma.Defaults(users)
		rows, err := harness.RunFig10(p)
		if err != nil {
			return err
		}
		if csv {
			harness.WriteFig10CSV(os.Stdout, rows)
		} else {
			harness.FprintFig10(os.Stdout, rows)
		}
		fmt.Println()
	}

	sweeps := []struct {
		id   string
		vary harness.Fig12Vary
		sdbt bool
	}{
		{"12a", harness.VaryDiffSize, true},
		{"12b", harness.VaryJoins, false},
		{"12c", harness.VarySelectivity, true},
		{"12d", harness.VaryFanout, true},
	}
	for _, s := range sweeps {
		if !all && fig != s.id {
			continue
		}
		fmt.Printf("== Figure %s: varying %s (A=idIVM, B=tuple, C=SDBT-fixed, D=SDBT-streams) ==\n",
			s.id, s.vary)
		points, err := harness.RunFig12(s.vary, harness.PaperValues(s.vary), base, s.sdbt)
		if err != nil {
			return err
		}
		if csv {
			harness.WriteFig12CSV(os.Stdout, s.vary, points)
		} else {
			harness.FprintFig12(os.Stdout, s.vary, points)
		}
		fmt.Println()
	}

	if all || table == "2" {
		fmt.Println("== Table 2 / equation (1): SPJ cost model validation ==")
		v, err := harness.RunCostModelValidation(base, false)
		if err != nil {
			return err
		}
		harness.FprintValidation(os.Stdout, v)
		fmt.Println()
	}
	if all || fig == "crossover" {
		fmt.Println("== Footnote 9: IVM vs full recomputation crossover ==")
		rows, err := harness.RunCrossover(base, crossoverDs(scale))
		if err != nil {
			return err
		}
		harness.FprintCrossover(os.Stdout, rows)
		fmt.Println()
	}

	if all || table == "3" {
		fmt.Println("== Table 3 / equation (2): aggregate cost model validation ==")
		v, err := harness.RunCostModelValidation(base, true)
		if err != nil {
			return err
		}
		harness.FprintValidation(os.Stdout, v)
		fmt.Println()
	}
	return nil
}
