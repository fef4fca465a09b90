// Package workload generates the controlled-experiment workload of the
// paper's Section 7.2 (Figure 11): the devices/parts/devices_parts schema
// of the running example, scaled and parameterized by diff size d, number
// of joins j, selectivity s and fanout f, plus the view definitions of
// Figures 1b and 5b and the values each Figure 12 sweep takes.
package workload

import (
	"fmt"
	"math/rand"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/expr"
	"idivm/internal/rel"
)

// Params configures one experiment instance. The paper's defaults
// (Figure 11b) are DiffSize=200, Selectivity=20, Fanout=10, Joins=2 over
// 5M parts / 5M devices / 50M devices_parts; Scale divides those
// cardinalities so experiments run in-memory (ratios, selectivities and
// fanouts — which drive the speedup shapes — are preserved).
type Params struct {
	Parts       int // number of parts
	Devices     int // number of devices
	DiffSize    int // d: number of price updates per maintenance round
	Selectivity int // s: percent of devices in the "phone" category
	Fanout      int // f: parts per device (devices_parts rows = Devices*Fanout)
	Joins       int // j: total joins in the view (2 = original view)
	// NoSelection disables the σ category="phone" selection; Section 7.2's
	// varying-joins experiment disables it for every j "to focus on the
	// effects of each additional join".
	NoSelection bool
	Seed        int64
}

// Defaults returns the paper's default parameters at the given part count
// (the paper used 5M parts; 20k keeps a laptop run under a second).
func Defaults(parts int) Params {
	return Params{
		Parts:       parts,
		Devices:     parts,
		DiffSize:    200,
		Selectivity: 20,
		Fanout:      10,
		Joins:       2,
		Seed:        1,
	}
}

// Dataset is a generated database plus the bookkeeping needed to drive
// update rounds.
type Dataset struct {
	DB      *db.Database
	Params  Params
	rng     *rand.Rand
	nextPid int64
}

// Build generates the dataset: parts(pid, price), devices(did, category),
// devices_parts(did, pid) with the requested fanout and selectivity, and —
// when Joins > 2 — vertically-decomposed side tables R1..R(j-2) joined
// 1-to-1 on (did, pid), mirroring Section 7.2's varying-joins setup.
func Build(p Params) *Dataset {
	rng := rand.New(rand.NewSource(p.Seed))
	d := db.New()

	parts := d.MustCreateTable("parts", rel.NewSchema([]string{"pid", "price"}, []string{"pid"}))
	for i := 0; i < p.Parts; i++ {
		parts.MustInsert(rel.Int(int64(i)), rel.Int(int64(1+rng.Intn(100))))
	}

	devices := d.MustCreateTable("devices", rel.NewSchema([]string{"did", "category"}, []string{"did"}))
	for i := 0; i < p.Devices; i++ {
		cat := "tablet"
		// Deterministic striping gives an exact selectivity.
		if p.Selectivity > 0 && (i*100)/p.Devices < p.Selectivity {
			cat = "phone"
		}
		devices.MustInsert(rel.Int(int64(i)), rel.String(cat))
	}

	dp := d.MustCreateTable("devices_parts", rel.NewSchema([]string{"did", "pid"}, []string{"did", "pid"}))
	for dev := 0; dev < p.Devices; dev++ {
		for k := 0; k < p.Fanout; k++ {
			pid := rng.Intn(p.Parts)
			// Retry once on duplicate (did, pid); then skip.
			if _, ok := dp.Get(rel.StatePost, []rel.Value{rel.Int(int64(dev)), rel.Int(int64(pid))}); ok {
				pid = (pid + 1) % p.Parts
				if _, ok2 := dp.Get(rel.StatePost, []rel.Value{rel.Int(int64(dev)), rel.Int(int64(pid))}); ok2 {
					continue
				}
			}
			dp.MustInsert(rel.Int(int64(dev)), rel.Int(int64(pid)))
		}
	}

	// Side tables for the varying-joins experiment: 1-to-1 on (did, pid).
	for r := 0; r < p.Joins-2; r++ {
		name := fmt.Sprintf("r%d", r+1)
		side := d.MustCreateTable(name, rel.NewSchema([]string{"did", "pid", fmt.Sprintf("attr%d", r+1)}, []string{"did", "pid"}))
		for _, row := range dp.Rows(rel.StatePost) {
			side.MustInsert(row[0], row[1], rel.Int(int64(rng.Intn(1000))))
		}
	}
	d.Counter().Reset()
	return &Dataset{DB: d, Params: p, rng: rng, nextPid: int64(p.Parts)}
}

// SPJPlan builds the view V of Figure 1b over the dataset, extended with
// the side-table joins when Joins > 2. With Joins > 2 the selection on
// category is disabled, exactly as in Section 7.2's varying-joins setup.
func (ds *Dataset) SPJPlan() algebra.Node {
	d := ds.DB
	parts, _ := d.Table("parts")
	dp, _ := d.Table("devices_parts")
	devices, _ := d.Table("devices")

	sp := algebra.NewScan("parts", "", parts.Schema())
	sdp := algebra.NewScan("devices_parts", "", dp.Schema())
	sd := algebra.NewScan("devices", "", devices.Schema())

	var plan algebra.Node = algebra.NewJoin(sp, sdp,
		expr.Eq(expr.C("parts.pid"), expr.C("devices_parts.pid")))

	var devSide algebra.Node = sd
	if !ds.Params.NoSelection {
		devSide = algebra.NewSelect(sd, expr.Eq(expr.C("devices.category"), expr.StrLit("phone")))
	}
	plan = algebra.NewJoin(plan, devSide,
		expr.Eq(expr.C("devices_parts.did"), expr.C("devices.did")))

	items := []algebra.ProjItem{
		{E: expr.C("devices_parts.did"), As: "devices_parts.did"},
		{E: expr.C("devices_parts.pid"), As: "devices_parts.pid"},
		{E: expr.C("parts.price"), As: "price"},
	}
	for r := 0; r < ds.Params.Joins-2; r++ {
		name := fmt.Sprintf("r%d", r+1)
		side, _ := d.Table(name)
		ss := algebra.NewScan(name, "", side.Schema())
		plan = algebra.NewJoin(plan, ss, expr.And(
			expr.Eq(expr.C("devices_parts.did"), expr.C(name+".did")),
			expr.Eq(expr.C("devices_parts.pid"), expr.C(name+".pid"))))
		items = append(items, algebra.ProjItem{E: expr.C(fmt.Sprintf("%s.attr%d", name, r+1)), As: fmt.Sprintf("attr%d", r+1)})
	}
	return algebra.NewProject(plan, items)
}

// AggPlan builds the aggregate view V' of Figure 5b: total part cost per
// device.
func (ds *Dataset) AggPlan() algebra.Node {
	return algebra.NewGroupBy(ds.SPJPlan(), []string{"devices_parts.did"},
		[]algebra.Agg{{Fn: algebra.AggSum, Arg: expr.C("price"), As: "cost"}})
}

// ApplyPriceUpdates performs one round of d random price updates on
// distinct parts — the base-table diff ∆u_parts(pid; price) of Figure 11c.
func (ds *Dataset) ApplyPriceUpdates() error {
	p := ds.Params
	seen := map[int]bool{}
	for len(seen) < p.DiffSize && len(seen) < p.Parts {
		pid := ds.rng.Intn(p.Parts)
		if seen[pid] {
			continue
		}
		seen[pid] = true
		newPrice := rel.Int(int64(1 + ds.rng.Intn(100)))
		if _, err := ds.DB.Update("parts", []rel.Value{rel.Int(int64(pid))}, []string{"price"}, []rel.Value{newPrice}); err != nil {
			return err
		}
	}
	return nil
}

// ApplyCategoryFlips flips n random devices between phone and tablet —
// conditional-attribute updates exercising the selection's insert/delete
// paths.
func (ds *Dataset) ApplyCategoryFlips(n int) error {
	for i := 0; i < n; i++ {
		did := ds.rng.Intn(ds.Params.Devices)
		t, _ := ds.DB.Table("devices")
		row, ok := t.Get(rel.StatePost, []rel.Value{rel.Int(int64(did))})
		if !ok {
			continue
		}
		cat := "phone"
		if row[1].Text() == "phone" {
			cat = "tablet"
		}
		if _, err := ds.DB.Update("devices", []rel.Value{rel.Int(int64(did))}, []string{"category"}, []rel.Value{rel.String(cat)}); err != nil {
			return err
		}
	}
	return nil
}

// ApplyPartChurn inserts and deletes nIns/nDel parts with containments,
// exercising the insert/delete diff paths end to end.
func (ds *Dataset) ApplyPartChurn(nIns, nDel int) error {
	d := ds.DB
	for i := 0; i < nIns; i++ {
		pid := ds.nextPid
		ds.nextPid++
		if err := d.Insert("parts", rel.Tuple{rel.Int(pid), rel.Int(int64(1 + ds.rng.Intn(100)))}); err != nil {
			return err
		}
		dev := int64(ds.rng.Intn(ds.Params.Devices))
		if err := d.Insert("devices_parts", rel.Tuple{rel.Int(dev), rel.Int(pid)}); err != nil {
			return err
		}
	}
	for i := 0; i < nDel; i++ {
		pid := int64(ds.rng.Intn(ds.Params.Parts))
		// Remove containments first to keep referential sanity.
		dp, _ := d.Table("devices_parts")
		rows, err := dp.Lookup(rel.StatePost, []string{"pid"}, []rel.Value{rel.Int(pid)})
		if err != nil {
			return err
		}
		for _, row := range append([]rel.Tuple(nil), rows...) {
			if _, err := d.Delete("devices_parts", []rel.Value{row[0], row[1]}); err != nil {
				return err
			}
		}
		if _, err := d.Delete("parts", []rel.Value{rel.Int(pid)}); err != nil {
			return err
		}
	}
	return nil
}

// Fig12Vary names the parameter one Figure 12 sweep varies.
type Fig12Vary string

// The four sweeps of Figure 12.
const (
	VaryDiffSize    Fig12Vary = "d"
	VaryJoins       Fig12Vary = "j"
	VarySelectivity Fig12Vary = "s"
	VaryFanout      Fig12Vary = "f"
)

// PaperValues returns the x-axis values the paper uses for each sweep.
func PaperValues(v Fig12Vary) []int {
	switch v {
	case VaryDiffSize:
		return []int{100, 200, 300, 400, 500}
	case VaryJoins:
		return []int{2, 3, 4, 5, 6}
	case VarySelectivity:
		return []int{6, 12, 25, 50, 100}
	default:
		return []int{5, 10, 15, 20, 25}
	}
}
