package harness

import (
	"fmt"
	"io"

	"idivm/internal/algebra"
	"idivm/internal/bsma"
	"idivm/internal/expr"
	"idivm/internal/ivm"
)

// RegisterManyViews registers, in ID mode, the views of the end-to-end
// benchmark's bsma_views workload in one system: the eight Figure 10 views
// under their query names, then city_rollup (per-city sums over user),
// city_hist (a histogram of cities by tweet sum over that view — a cascade)
// and city_minmax (MIN/MAX of tweetsnum per city).
func RegisterManyViews(sys *ivm.System, ds *bsma.Dataset) error {
	register := func(name string, plan algebra.Node) error {
		if _, err := sys.RegisterView(name, plan, ivm.ModeID); err != nil {
			return fmt.Errorf("harness: %s: %w", name, err)
		}
		return nil
	}
	for _, q := range bsma.QueryNames() {
		plan, err := ds.Plan(q)
		if err != nil {
			return err
		}
		if err := register(q, plan); err != nil {
			return err
		}
	}
	user, err := ds.DB.Table("user")
	if err != nil {
		return err
	}
	scan := algebra.NewScan("user", "", user.Schema())
	tweets := expr.C("user.tweetsnum")
	rollup := algebra.NewProject(
		algebra.NewGroupBy(scan, []string{"user.city"}, []algebra.Agg{
			{Fn: algebra.AggSum, Arg: tweets, As: "tweets"},
			{Fn: algebra.AggSum, Arg: expr.C("user.favornum"), As: "favors"}}),
		[]algebra.ProjItem{{E: expr.C("user.city"), As: "city"}, {E: expr.C("tweets"), As: "tweets"}, {E: expr.C("favors"), As: "favors"}})
	if err := register("city_rollup", rollup); err != nil {
		return err
	}
	rolled, err := ds.DB.Table("city_rollup")
	if err != nil {
		return err
	}
	hist := algebra.NewGroupBy(algebra.NewScan("city_rollup", "", rolled.Schema()), []string{"city_rollup.tweets"},
		[]algebra.Agg{{Fn: algebra.AggCount, As: "cities"}, {Fn: algebra.AggSum, Arg: expr.C("city_rollup.favors"), As: "favors"}})
	if err := register("city_hist", hist); err != nil {
		return err
	}
	return register("city_minmax", algebra.NewGroupBy(scan, []string{"user.city"}, []algebra.Agg{
		{Fn: algebra.AggMin, Arg: tweets, As: "min_tweets"}, {Fn: algebra.AggMax, Arg: tweets, As: "max_tweets"}}))
}

// RunSteps maintains the many-views system through one round of the BSMA
// user-update workload and returns the per-view reports, each view verified
// against recomputation. Report.Phases.Steps is the per-step breakdown
// FprintSteps renders.
func RunSteps(p bsma.Params) ([]*ivm.Report, error) {
	ds := bsma.Build(p)
	sys := ivm.NewSystem(ds.DB)
	if err := RegisterManyViews(sys, ds); err != nil {
		return nil, err
	}
	if err := ds.ApplyUserUpdates(); err != nil {
		return nil, err
	}
	reports, err := sys.MaintainAll()
	if err != nil {
		return nil, err
	}
	for _, name := range sys.ViewNames() {
		if err := sys.CheckConsistent(name); err != nil {
			return nil, err
		}
	}
	return reports, nil
}

// FprintSteps renders one round step by step: what each Δ-script step of
// each view produced (rows), what it was charged (accesses) and how long it
// took — the table that shows where a many-view round spends its time, in
// steps the access count never sees as often as in those it does.
func FprintSteps(w io.Writer, reports []*ivm.Report) {
	fmt.Fprintf(w, "%-12s %-12s %7s %9s %9s\n", "view", "step", "rows", "accesses", "µs")
	for _, r := range reports {
		for _, st := range r.Phases.Steps {
			fmt.Fprintf(w, "%-12s %-12s %7d %9d %9.1f\n", r.View, st.Step, st.Rows, st.Cost.Total(), float64(st.Time.Nanoseconds())/1000)
		}
		fmt.Fprintf(w, "%-12s %-12s %7d %9d %9.1f\n", r.View, "(round)", r.DiffTuples, r.Phases.Total().Total(), float64(r.Duration.Nanoseconds())/1000)
	}
}
