package ivm

import (
	"fmt"

	"idivm/internal/rel"
)

// CheckEpochs checks the invariant the one epoch protocol leaves after every
// round: every view, cache and logged base table is in its epoch. With a nil
// want (after a successful MaintainAll, or Maintain + ResetLog) each StatePre
// must equal its StatePost; otherwise (after a failed round) each StatePre
// must equal want[name], the pre-states recorded before the round. It returns
// the pre-states it read, sorted and uncharged, for a later call to compare
// against. The package's external tests reach it through an interface
// assertion: ivmlint type-checks them against the production files alone.
func (s *System) CheckEpochs(want map[string]string) (map[string]string, error) {
	pre := make(map[string]string)
	for _, t := range s.epochTables() {
		name := t.Name()
		if !t.InEpoch() {
			return nil, fmt.Errorf("%s is not in its epoch", name)
		}
		u := t.WithCounter(nil)
		pre[name] = fmt.Sprint(u.Relation(rel.StatePre).Sorted().Tuples)
		w := want[name]
		if want == nil {
			w = fmt.Sprint(u.Relation(rel.StatePost).Sorted().Tuples)
		}
		if pre[name] != w {
			return nil, fmt.Errorf("%s: StatePre %s, want %s", name, pre[name], w)
		}
	}
	return pre, nil
}
