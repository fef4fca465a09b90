package harness

import (
	"fmt"

	"idivm/internal/bsma"
	"idivm/internal/ivm"
)

// RunSteps registers the eleven views of bsma.ViewNames in ID mode in one
// system, maintains them through the given number of rounds (at least one)
// of the BSMA user-update workload and returns each round's per-view
// reports, in round order. The views are verified against recomputation
// after the first round and after the last. Report.Phases.Steps is the
// per-step breakdown; the first round is the one whose counts do not depend
// on how many rounds follow.
func RunSteps(p bsma.Params, rounds int) ([][]*ivm.Report, error) {
	ds := bsma.Build(p)
	sys := ivm.NewSystem(ds.DB)
	for _, name := range bsma.ViewNames() {
		plan, err := ds.Plan(name)
		if err == nil {
			_, err = sys.RegisterView(name, plan, ivm.ModeID)
		}
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", name, err)
		}
	}
	var out [][]*ivm.Report
	for r := 0; r < max(rounds, 1); r++ {
		if err := ds.ApplyUserUpdates(); err != nil {
			return nil, err
		}
		reports, err := sys.MaintainAll()
		if err != nil {
			return nil, err
		}
		out = append(out, reports)
		if r > 0 && r < rounds-1 {
			continue
		}
		for _, name := range sys.ViewNames() {
			if err := sys.CheckConsistent(name); err != nil {
				return nil, fmt.Errorf("harness: after round %d: %w", r+1, err)
			}
		}
	}
	return out, nil
}
