package harness

import (
	"fmt"

	"idivm/internal/bsma"
	"idivm/internal/ivm"
)

// RunSteps registers the eleven views of bsma.ViewNames in ID mode in one
// system, maintains them through one round of the BSMA user-update workload
// and returns the per-view reports, each view verified against
// recomputation. Report.Phases.Steps is the per-step breakdown.
func RunSteps(p bsma.Params) ([]*ivm.Report, error) {
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
