// Command experiments regenerates the paper's evaluation tables as markdown:
// one figure (-fig 10, 12a–12d, crossover), one cost-model table (-table 2,
// 3), the many-view BSMA round step by step (-steps), or every table, the
// ablations included (-all). -scripts prints the Δ-scripts of the eleven
// BSMA views instead. -scale and -users size the datasets. Every count is
// deterministic; the test of this command checks each table against its
// section of EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"time"

	"idivm/internal/bsma"
	"idivm/internal/harness"
	"idivm/internal/ivm"
	"idivm/internal/workload"
)

// params are the flag values a table is rendered at.
type params struct {
	scale, users int
	// perStep precedes the step table's per-view totals with every step's
	// rows and accesses in the first round and its median µs over
	// warmRounds more (-steps).
	perStep bool
}

// table is one markdown table of the command.
type table struct {
	name   string // its section in EXPERIMENTS.md
	sel    string // the flags that select it
	title  string
	render func(w io.Writer, p params) error
}

var tables = []table{
	{"fig10", "-fig 10", "Figure 10: speedup of ID-based over tuple-based IVM, BSMA views", renderFig10},
	{"fig12a", "-fig 12a", "Figure 12a: varying d (A=idIVM, B=tuple, C=SDBT-fixed, D=SDBT-streams)", fig12(workload.VaryDiffSize, true)},
	{"fig12b", "-fig 12b", "Figure 12b: varying j, selection disabled (A=idIVM, B=tuple)", fig12(workload.VaryJoins, false)},
	{"fig12c", "-fig 12c", "Figure 12c: varying s (A=idIVM, B=tuple, C=SDBT-fixed, D=SDBT-streams)", fig12(workload.VarySelectivity, true)},
	{"fig12d", "-fig 12d", "Figure 12d: varying f (A=idIVM, B=tuple, C=SDBT-fixed, D=SDBT-streams)", fig12(workload.VaryFanout, true)},
	{"table2", "-table 2", "Table 2 / equation (1): SPJ cost model validation", validation(false)},
	{"table3", "-table 3", "Table 3 / equation (2): aggregate cost model validation", validation(true)},
	{"crossover", "-fig crossover", "Footnote 9: IVM vs full recomputation crossover", renderCrossover},
	{"ablation", "-all", "Ablations: the aggregate view at the Figure 12a default point", renderAblation},
	{"steps", "-steps", "One round of the eleven bsma_views views in one system", renderSteps},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it returns the exit status, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to regenerate: 10 | 12a | 12b | 12c | 12d | crossover")
	tab := fs.String("table", "", "table/model to validate: 2 | 3")
	steps := fs.Bool("steps", false, fmt.Sprintf("print one round of the eleven BSMA views in one system: every step's rows and accesses, its median µs over %d further rounds, then each view's accesses", warmRounds))
	scripts := fs.Bool("scripts", false, "print the Δ-script of each of the eleven BSMA views and exit")
	all := fs.Bool("all", false, "run every experiment")
	scale := fs.Int("scale", 4000, "parts/devices count for the Figure 12 sweeps")
	users := fs.Int("users", 400, "user count for the BSMA workload")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *scripts {
		if err := printScripts(stdout, bsma.Defaults(*users)); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		return 0
	}
	var sel []table
	for _, t := range tables {
		if *all || t.sel == "-fig "+*fig || t.sel == "-table "+*tab || (*steps && t.sel == "-steps") {
			sel = append(sel, t)
		}
	}
	known := func(prefix, v string) bool {
		return v == "" || slices.ContainsFunc(tables, func(t table) bool { return t.sel == prefix+v })
	}
	if len(sel) == 0 || !known("-fig ", *fig) || !known("-table ", *tab) {
		fs.Usage()
		return 2
	}
	for _, t := range sel {
		fmt.Fprintf(stdout, "## %s\n\n", t.title)
		if err := t.render(stdout, params{scale: *scale, users: *users, perStep: *steps}); err != nil {
			fmt.Fprintln(stderr, "error:", err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// num renders a count with its thousands separated by spaces: 12 164.
func num(n int64) string {
	s := strconv.FormatInt(n, 10)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + " " + s[i:]
	}
	return s
}

// times renders b's cost over a's with the given decimals: 2.3×.
func times(a, b harness.ApproachResult, decimals int) string {
	return fmt.Sprintf("%.*f×", decimals, harness.Speedup(a, b))
}

func renderFig10(w io.Writer, p params) error {
	rows, err := harness.RunFig10(bsma.Defaults(p.users))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "| view | id accesses | tuple accesses | speedup |")
	fmt.Fprintln(w, "|------|------------:|---------------:|--------:|")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", r.Query, num(r.ID.Accesses), num(r.Tuple.Accesses), times(r.ID, r.Tuple, 1))
	}
	return nil
}

// fig12 renders one Figure 12 sweep over the paper's values: each
// approach's accesses and the ratios to idIVM (A), B/A being the figure's
// speedup and C/A, D/A Section 7.3's comparison with the SDBT variants.
func fig12(vary workload.Fig12Vary, withSDBT bool) func(io.Writer, params) error {
	return func(w io.Writer, p params) error {
		points, err := harness.RunFig12(vary, workload.PaperValues(vary), workload.Defaults(p.scale), withSDBT)
		if err != nil {
			return err
		}
		if withSDBT {
			fmt.Fprintf(w, "| %s | A | B | C | D | B/A | C/A | D/A |\n|--:|--:|--:|--:|--:|--:|--:|--:|\n", vary)
		} else {
			fmt.Fprintf(w, "| %s | A | B | B/A |\n|--:|--:|--:|--:|\n", vary)
		}
		for _, pt := range points {
			fmt.Fprintf(w, "| %d |", pt.Value)
			for _, r := range pt.Results {
				fmt.Fprintf(w, " %s |", num(r.Accesses))
			}
			decimals := []int{1, 2, 1} // B/A, C/A, D/A: C/A lies near 1
			for i, r := range pt.Results[1:] {
				fmt.Fprintf(w, " %s |", times(pt.Results[0], r, decimals[i]))
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

// validation renders the measured cost-model parameters of equation (1)
// (SPJ) or (2) (aggregate) with the predicted and the measured speedup.
func validation(agg bool) func(io.Writer, params) error {
	return func(w io.Writer, p params) error {
		v, err := harness.RunCostModelValidation(workload.Defaults(p.scale), agg)
		if err != nil {
			return err
		}
		g := "—"
		if agg {
			g = fmt.Sprintf("%.2f", v.Params.G)
		}
		fmt.Fprintln(w, "| a | p | g | predicted | measured |\n|--:|--:|--:|--:|--:|")
		fmt.Fprintf(w, "| %.1f | %.2f | %s | %.2f× | %.2f× |\n", v.Params.A, v.Params.P, g, v.PredictedSpeedup, v.MeasuredSpeedup)
		return nil
	}
}

// renderCrossover runs diff sizes from a fortieth of the parts to all of
// them, well past the crossover.
func renderCrossover(w io.Writer, p params) error {
	s := p.scale
	rows, err := harness.RunCrossover(workload.Defaults(s), []int{s / 40, s / 10, s / 4, s / 2, s})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "| d | ivm | recompute (raw) | recompute (seq÷%d) | winner |\n|--:|--:|--:|--:|--|\n", harness.SeqDiscount)
	for _, r := range rows {
		winner := "recompute"
		if r.IVMWins {
			winner = "ivm"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n", num(int64(r.DiffSize)), num(r.IVMAccesses),
			num(r.RecomputeAccesses), num(r.RecomputeWeighted), winner)
	}
	return nil
}

func renderAblation(w io.Writer, p params) error {
	rows, err := harness.RunAblation(workload.Defaults(p.scale))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "| ablation | accesses/round | vs. full system |\n|---|--:|--:|")
	for i, r := range rows {
		vs := "—"
		if i > 0 {
			vs = times(rows[0], r, 2)
		}
		fmt.Fprintf(w, "| %s | %s | %s |\n", r.Name, num(r.Accesses), vs)
	}
	return nil
}

// warmRounds is how many rounds -steps times after the first: each step's µs
// is its median over them.
const warmRounds = 20

// renderSteps runs harness.RunSteps and renders each view's first-round total
// and their sum, the round's maintenance accesses. With perStep it first
// lists what each Δ-script step of each view produced (rows) and was charged
// (accesses) in that round and how long it took (µs, the median over
// warmRounds further rounds) — where a many-view round spends its time, in
// steps the access count never sees as often as in those it does.
func renderSteps(w io.Writer, p params) error {
	rounds := 1
	if p.perStep {
		rounds += warmRounds
	}
	all, err := harness.RunSteps(bsma.Defaults(p.users), rounds)
	if err != nil {
		return err
	}
	if p.perStep {
		printSteps(w, all[0], all[1:])
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "| view | accesses |\n|------|---------:|")
	var total int64
	for _, r := range all[0] {
		fmt.Fprintf(w, "| %s | %s |\n", r.View, num(r.Phases.Total().Total()))
		total += r.Phases.Total().Total()
	}
	fmt.Fprintf(w, "| **total** | **%s** |\n", num(total))
	return nil
}

// printSteps renders one round step by step: rows and accesses of the first
// round, µs the median over the warm rounds that followed it (the same views
// and scripts, so step j of view i is the same step in every round). Each
// view ends with its (round) row; the last row, "total", sums those rows over
// all views: the round's maintenance accesses, and the views' times added up
// (they overlap when the views run concurrently).
func printSteps(w io.Writer, first []*ivm.Report, warm [][]*ivm.Report) {
	line := func(view, step string, rows int, accesses int64, d time.Duration) {
		fmt.Fprintf(w, "| %s | %s | %d | %d | %.1f |\n", view, step, rows, accesses, float64(d.Nanoseconds())/1000)
	}
	median := func(of func(round []*ivm.Report) time.Duration) time.Duration {
		ds := make([]time.Duration, len(warm))
		for k, round := range warm {
			ds[k] = of(round)
		}
		return medianDuration(ds)
	}
	fmt.Fprintf(w, "Rows and accesses of the first round; µs the median of the %d rounds after it.\n\n", len(warm))
	fmt.Fprintln(w, "| view | step | rows | accesses | µs |\n|---|---|--:|--:|--:|")
	var rows int
	var accesses int64
	for i, r := range first {
		for j, st := range r.Phases.Steps {
			line(r.View, st.Step, st.Rows, st.Cost.Total(), median(func(round []*ivm.Report) time.Duration { return round[i].Phases.Steps[j].Time }))
		}
		line(r.View, "(round)", r.DiffTuples, r.Phases.Total().Total(), median(func(round []*ivm.Report) time.Duration { return round[i].Duration }))
		rows, accesses = rows+r.DiffTuples, accesses+r.Phases.Total().Total()
	}
	line("total", "(round)", rows, accesses, median(func(round []*ivm.Report) time.Duration {
		var d time.Duration
		for _, r := range round {
			d += r.Duration
		}
		return d
	}))
}

// medianDuration returns the median of ds (the mean of the middle two for an
// even count), 0 for none. It sorts ds.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	if n := len(ds); n%2 == 0 {
		return (ds[n/2-1] + ds[n/2]) / 2
	}
	return ds[len(ds)/2]
}

// printScripts registers the views of bsma.ViewNames in ID mode over a
// dataset built from p and prints every view's Δ-script in registration
// order: the text to diff between two commits when a rule change moves a
// dispatch.
func printScripts(w io.Writer, p bsma.Params) error {
	ds := bsma.Build(p)
	sys := ivm.NewSystem(ds.DB)
	for _, name := range bsma.ViewNames() {
		plan, err := ds.Plan(name)
		if err == nil {
			_, err = sys.RegisterView(name, plan, ivm.ModeID)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	for _, name := range sys.ViewNames() {
		v, _ := sys.View(name)
		fmt.Fprintln(w, v.Script)
	}
	return nil
}
