package algebra

import "idivm/internal/expr"

var (
	joinStrategyNames = [...]string{joinProbeRight: "joinProbeRight", joinProbeLeft: "joinProbeLeft",
		joinHash: "joinHash", joinNested: "joinNested"}
	semiStrategyNames = [...]string{semiProbeLeft: "semiProbeLeft", semiProbeRight: "semiProbeRight",
		semiHash: "semiHash", semiNested: "semiNested"}
)

// Strategy names the strategy planJoin picks for j. The package's external
// tests reach it through an interface assertion: ivmlint type-checks them
// against the production files alone.
func (j *Join) Strategy() string {
	p, err := planJoin(j)
	if err != nil {
		return err.Error()
	}
	return joinStrategyNames[p.strategy]
}

// Strategy names the strategy planSemi picks for s.
func (s *SemiJoin) Strategy() string { return semiStrategyName(s.Left, s.Right, s.Pred, true) }

// Strategy names the strategy planSemi picks for a.
func (a *AntiJoin) Strategy() string { return semiStrategyName(a.Left, a.Right, a.Pred, false) }

func semiStrategyName(l, r Node, pred expr.Expr, keep bool) string {
	p, err := planSemi(l, r, pred, keep)
	if err != nil {
		return err.Error()
	}
	return semiStrategyNames[p.strategy]
}
