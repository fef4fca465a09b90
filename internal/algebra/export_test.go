package algebra

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
func (s *SemiJoin) Strategy() string {
	p, err := planSemi(s)
	if err != nil {
		return err.Error()
	}
	return semiStrategyNames[p.strategy]
}
