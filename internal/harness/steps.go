package harness

import (
	"fmt"
	"io"
	"time"

	"idivm/internal/algebra"
	"idivm/internal/bsma"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/ivm"
)

// RegisterManyViews registers, in ID mode, the views of the end-to-end
// benchmark's bsma_views workload in one system: the eight Figure 10 views
// under their query names, then the CityViews.
func RegisterManyViews(sys *ivm.System, ds *bsma.Dataset) error {
	register := func(name string, plan algebra.Node, err error) error {
		if err == nil {
			_, err = sys.RegisterView(name, plan, ivm.ModeID)
		}
		if err != nil {
			return fmt.Errorf("harness: %s: %w", name, err)
		}
		return nil
	}
	for _, q := range bsma.QueryNames() {
		plan, err := ds.Plan(q)
		if err := register(q, plan, err); err != nil {
			return err
		}
	}
	for _, name := range CityViews {
		plan, err := CityPlan(ds.DB, name)
		if err := register(name, plan, err); err != nil {
			return err
		}
	}
	return nil
}

// CityViews names the three views over the BSMA user table that
// RegisterManyViews adds after the Figure 10 views, in registration order.
var CityViews = []string{"city_rollup", "city_hist", "city_minmax"}

// CityPlan builds the city view name over d: city_rollup (per-city sums over
// user), city_hist (a histogram of cities by tweet sum over the city_rollup
// view, which must be registered — a cascade) or city_minmax (MIN/MAX of
// tweetsnum per city).
func CityPlan(d *db.Database, name string) (algebra.Node, error) {
	src := "user"
	if name == "city_hist" {
		src = "city_rollup"
	}
	t, err := d.Table(src)
	if err != nil {
		return nil, err
	}
	scan := algebra.NewScan(src, "", t.Schema())
	tweets := expr.C("user.tweetsnum")
	switch name {
	case "city_rollup":
		return algebra.NewProject(
			algebra.NewGroupBy(scan, []string{"user.city"}, []algebra.Agg{
				{Fn: algebra.AggSum, Arg: tweets, As: "tweets"},
				{Fn: algebra.AggSum, Arg: expr.C("user.favornum"), As: "favors"}}),
			[]algebra.ProjItem{{E: expr.C("user.city"), As: "city"}, {E: expr.C("tweets"), As: "tweets"}, {E: expr.C("favors"), As: "favors"}}), nil
	case "city_hist":
		return algebra.NewGroupBy(scan, []string{"city_rollup.tweets"},
			[]algebra.Agg{{Fn: algebra.AggCount, As: "cities"}, {Fn: algebra.AggSum, Arg: expr.C("city_rollup.favors"), As: "favors"}}), nil
	case "city_minmax":
		return algebra.NewGroupBy(scan, []string{"user.city"}, []algebra.Agg{
			{Fn: algebra.AggMin, Arg: tweets, As: "min_tweets"}, {Fn: algebra.AggMax, Arg: tweets, As: "max_tweets"}}), nil
	}
	return nil, fmt.Errorf("harness: unknown city view %q", name)
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

// FprintScripts registers the views of RegisterManyViews over a dataset
// built from p and prints every view's Δ-script in registration order: the
// text to diff between two commits when a rule change moves a dispatch.
func FprintScripts(w io.Writer, p bsma.Params) error {
	ds := bsma.Build(p)
	sys := ivm.NewSystem(ds.DB)
	if err := RegisterManyViews(sys, ds); err != nil {
		return err
	}
	for _, name := range sys.ViewNames() {
		v, _ := sys.View(name)
		fmt.Fprintln(w, v.Script)
	}
	return nil
}

// FprintSteps renders one round step by step: what each Δ-script step of
// each view produced (rows), what it was charged (accesses) and how long it
// took — the table that shows where a many-view round spends its time, in
// steps the access count never sees as often as in those it does. Each
// view ends with its (round) row; the last row, "total", sums those rows
// over all views: the round's maintenance accesses, and the views' times
// added up (they overlap when the views run concurrently).
func FprintSteps(w io.Writer, reports []*ivm.Report) {
	line := func(view, step string, rows int, accesses int64, d time.Duration) {
		fmt.Fprintf(w, "%-12s %-12s %7d %9d %9.1f\n", view, step, rows, accesses, float64(d.Nanoseconds())/1000)
	}
	fmt.Fprintf(w, "%-12s %-12s %7s %9s %9s\n", "view", "step", "rows", "accesses", "µs")
	var rows int
	var accesses int64
	var d time.Duration
	for _, r := range reports {
		for _, st := range r.Phases.Steps {
			line(r.View, st.Step, st.Rows, st.Cost.Total(), st.Time)
		}
		line(r.View, "(round)", r.DiffTuples, r.Phases.Total().Total(), r.Duration)
		rows, accesses, d = rows+r.DiffTuples, accesses+r.Phases.Total().Total(), d+r.Duration
	}
	line("total", "(round)", rows, accesses, d)
}
