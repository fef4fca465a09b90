// Package sdbt implements the Simulated DBToaster comparison system of the
// paper's Section 7.3: a tuple-at-a-time IVM engine that maintains the
// running-example aggregate view V' = γ_did,sum(price)(parts ⋈
// devices_parts ⋈ σ_category=phone(devices)) through materialized
// intermediate views ("maps"), following DBToaster's higher-order delta
// processing with aggressive aggregation push-down.
//
// Two variants mirror the paper's columns C and D of Figure 12:
//
//   - Fixed: only the parts table is a stream. A single map
//     m_parts(pid → {did, cnt}) suffices, and — because the other tables
//     never change — it needs no maintenance. This is the best case for
//     DBToaster's strategy and slightly beats idIVM.
//   - Streams: every base table is a stream, so the engine materializes
//     maps for each of them (m_parts, m_price, m_phone, m_dev, m_dp) and
//     must maintain all of them on every change; a price update now also
//     maintains m_dev over the *unfiltered* fanout, which is why idIVM
//     significantly outperforms this variant.
//
// Like the paper's SDBT (and unlike the original DBToaster), the engine is
// allowed to consume update diffs directly rather than simulating them as
// delete+insert pairs.
package sdbt

import (
	"fmt"

	"idivm/internal/algebra"
	"idivm/internal/db"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/storage"
	"idivm/internal/workload"
)

// Variant selects which tables are treated as streams.
type Variant uint8

// The two SDBT variants of Section 7.3.
const (
	Fixed Variant = iota
	Streams
)

// String names the variant.
func (v Variant) String() string {
	if v == Streams {
		return "sdbt-streams"
	}
	return "sdbt-fixed"
}

// Engine is an SDBT instance bound to one workload dataset.
type Engine struct {
	ds      *workload.Dataset
	d       *db.Database
	variant Variant
	prefix  string

	view   *storage.Handle // (did, cost) — the maintained aggregate view
	mparts *storage.Handle // (pid, did, cnt) over dp ⋈ σ_phone(devices)
	// Streams-only maps:
	mprice *storage.Handle // (pid, price) — parts as a map
	mphone *storage.Handle // (did, isphone)
	mdev   *storage.Handle // (did, s) — per-device price sum over ALL devices
	mdp    *storage.Handle // (pid, did, cnt) over dp (unfiltered)
}

// New materializes the view and the variant's maps over the dataset's
// current contents and enables logging on the base tables.
func New(ds *workload.Dataset, variant Variant) (*Engine, error) {
	e := &Engine{ds: ds, d: ds.DB, variant: variant, prefix: "sdbt:" + variant.String() + ":"}
	if err := e.materialize(); err != nil {
		return nil, err
	}
	for _, t := range []string{"parts", "devices", "devices_parts"} {
		e.d.EnableLogging(t)
	}
	return e, nil
}

func (e *Engine) newMap(name string, schema rel.Schema) (*storage.Handle, error) {
	return e.d.CreateTable(e.prefix+name, schema)
}

func (e *Engine) materialize() error {
	d := e.d
	parts, err := d.Table("parts")
	if err != nil {
		return err
	}
	devices, err := d.Table("devices")
	if err != nil {
		return err
	}
	dp, err := d.Table("devices_parts")
	if err != nil {
		return err
	}

	phone := map[string]bool{}
	for _, row := range devices.Rows(rel.StatePost) {
		phone[rel.TupleKey(row[:1])] = row[1].Text() == "phone"
	}
	price := map[string]rel.Value{}
	for _, row := range parts.Rows(rel.StatePost) {
		price[rel.TupleKey(row[:1])] = row[1]
	}

	e.view, err = e.newMap("view", rel.NewSchema([]string{"did", "cost"}, []string{"did"}))
	if err != nil {
		return err
	}
	e.mparts, err = e.newMap("mparts", rel.NewSchema([]string{"pid", "did", "cnt"}, []string{"pid", "did"}))
	if err != nil {
		return err
	}
	if e.variant == Streams {
		if e.mprice, err = e.newMap("mprice", rel.NewSchema([]string{"pid", "price"}, []string{"pid"})); err != nil {
			return err
		}
		if e.mphone, err = e.newMap("mphone", rel.NewSchema([]string{"did", "isphone"}, []string{"did"})); err != nil {
			return err
		}
		if e.mdev, err = e.newMap("mdev", rel.NewSchema([]string{"did", "s"}, []string{"did"})); err != nil {
			return err
		}
		if e.mdp, err = e.newMap("mdp", rel.NewSchema([]string{"pid", "did", "cnt"}, []string{"pid", "did"})); err != nil {
			return err
		}
	}

	// Initial population (not charged: view-definition-time work).
	cost := map[string]rel.Value{}
	costDid := map[string]rel.Value{}
	devSum := map[string]rel.Value{}
	devSumDid := map[string]rel.Value{}
	type pd struct{ pid, did string }
	mpCnt := map[pd]int64{}
	mpVals := map[pd][2]rel.Value{}
	for _, row := range dp.Rows(rel.StatePost) {
		didK, pidK := rel.TupleKey(row[:1]), rel.TupleKey(row[1:2])
		p, ok := price[pidK]
		if !ok {
			continue
		}
		key := pd{pidK, didK}
		mpVals[key] = [2]rel.Value{row[1], row[0]}
		if e.variant == Streams {
			if err := insertOrAddDP(e.mdp, row[1], row[0]); err != nil {
				return err
			}
			devSum[didK] = rel.Add(orZero(devSum[didK]), p)
			devSumDid[didK] = row[0]
		}
		if phone[didK] {
			mpCnt[key]++
			cost[didK] = rel.Add(orZero(cost[didK]), p)
			costDid[didK] = row[0]
		}
	}
	for key, cnt := range mpCnt {
		v := mpVals[key]
		if err := e.mparts.Insert(rel.Tuple{v[0], v[1], rel.Int(cnt)}); err != nil {
			return err
		}
	}
	for k, c := range cost {
		if err := e.view.Insert(rel.Tuple{costDid[k], c}); err != nil {
			return err
		}
	}
	if e.variant == Streams {
		for _, row := range parts.Rows(rel.StatePost) {
			if err := e.mprice.Insert(rel.Tuple{row[0], row[1]}); err != nil {
				return err
			}
		}
		for _, row := range devices.Rows(rel.StatePost) {
			is := int64(0)
			if row[1].Text() == "phone" {
				is = 1
			}
			if err := e.mphone.Insert(rel.Tuple{row[0], rel.Int(is)}); err != nil {
				return err
			}
		}
		for k, s := range devSum {
			if err := e.mdev.Insert(rel.Tuple{devSumDid[k], s}); err != nil {
				return err
			}
		}
	}
	return nil
}

func orZero(v rel.Value) rel.Value {
	if v.IsNull() {
		return rel.Int(0)
	}
	return v
}

func insertOrAddDP(t *storage.Handle, pid, did rel.Value) error {
	if row, ok := t.Get(rel.StatePost, []rel.Value{pid, did}); ok {
		_, err := t.UpdateKey([]rel.Value{pid, did}, []string{"cnt"}, []rel.Value{rel.Add(row[2], rel.Int(1))})
		return err
	}
	return t.Insert(rel.Tuple{pid, did, rel.Int(1)})
}

// ViewTable returns the maintained view table.
func (e *Engine) ViewTable() *storage.Handle { return e.view }

// Maintain consumes the modification log tuple-at-a-time (DBToaster's
// execution model) and brings the view and the maps up to date. It does
// not clear the log; the caller resets it once every consumer is done.
func (e *Engine) Maintain() error {
	schemaOf := func(t string) (rel.Schema, error) {
		tab, err := e.d.Table(t)
		if err != nil {
			return rel.Schema{}, err
		}
		return tab.Schema(), nil
	}
	changes, err := ivm.CompactLog(e.d.Log(), schemaOf)
	if err != nil {
		return err
	}
	if e.variant == Fixed {
		for table, nc := range changes {
			if table != "parts" && !nc.Empty() {
				return fmt.Errorf("sdbt-fixed: table %q changed but only parts is a stream", table)
			}
		}
	}

	// Order matters only for referential sanity; each handler keeps every
	// map and the view consistent, so any serialization is correct.
	if nc := changes["parts"]; nc != nil {
		for _, row := range nc.Inserts {
			if err := e.partInsert(row); err != nil {
				return err
			}
		}
		for _, up := range nc.Updates {
			if err := e.partPriceUpdate(up.Pre, up.Post); err != nil {
				return err
			}
		}
	}
	if nc := changes["devices"]; nc != nil {
		for _, row := range nc.Inserts {
			if err := e.deviceInsert(row); err != nil {
				return err
			}
		}
		for _, up := range nc.Updates {
			if err := e.deviceFlip(up.Pre, up.Post); err != nil {
				return err
			}
		}
	}
	if nc := changes["devices_parts"]; nc != nil {
		for _, row := range nc.Inserts {
			if err := e.dpChange(row, 1); err != nil {
				return err
			}
		}
		for _, row := range nc.Deletes {
			if err := e.dpChange(row, -1); err != nil {
				return err
			}
		}
	}
	// Entity deletions last, once their containments are gone.
	if nc := changes["devices"]; nc != nil {
		for _, row := range nc.Deletes {
			if err := e.deviceDelete(row); err != nil {
				return err
			}
		}
	}
	if nc := changes["parts"]; nc != nil {
		for _, row := range nc.Deletes {
			if err := e.partDelete(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// Check recomputes the view from the base tables and compares.
func (e *Engine) Check() error {
	parts, _ := e.d.Table("parts")
	devices, _ := e.d.Table("devices")
	dp, _ := e.d.Table("devices_parts")

	phone := map[string]bool{}
	for _, row := range devices.Rows(rel.StatePost) {
		phone[rel.TupleKey(row[:1])] = row[1].Text() == "phone"
	}
	price := map[string]rel.Value{}
	for _, row := range parts.Rows(rel.StatePost) {
		price[rel.TupleKey(row[:1])] = row[1]
	}
	want := map[string]rel.Value{}
	wantDid := map[string]rel.Value{}
	for _, row := range dp.Rows(rel.StatePost) {
		didK, pidK := rel.TupleKey(row[:1]), rel.TupleKey(row[1:2])
		if p, ok := price[pidK]; ok && phone[didK] {
			want[didK] = rel.Add(orZero(want[didK]), p)
			wantDid[didK] = row[0]
		}
	}
	wantRel := rel.NewRelation(rel.NewSchema([]string{"did", "cost"}, []string{"did"}))
	for k, c := range want {
		wantRel.Add(rel.Tuple{wantDid[k], c})
	}
	got := e.view.Relation(rel.StatePost)
	if !got.EqualSet(wantRel) {
		return fmt.Errorf("sdbt %s: view mismatch\n got %v\nwant %v",
			e.variant, got.Sorted(), wantRel.Sorted())
	}
	return nil
}

// --- per-change handlers ----------------------------------------------

// addToGroup upserts cost[did] += delta, deleting the group when its value
// would only exist because of an empty contribution set (callers pass
// exact=true with the group's final membership knowledge).
func addToGroup(t *storage.Handle, valCol string, did rel.Value, delta rel.Value) error {
	if row, ok := t.Get(rel.StatePost, []rel.Value{did}); ok {
		_, err := t.UpdateKey([]rel.Value{did}, []string{valCol}, []rel.Value{rel.Add(row[1], delta)})
		return err
	}
	return t.Insert(rel.Tuple{did, delta})
}

func (e *Engine) partPriceUpdate(pre, post rel.Tuple) error {
	pid := pre[0]
	delta := rel.Sub(post[1], pre[1])
	// ΔV = γ_did sum(Δprice·cnt)(∆parts ⋈ m_parts): one map lookup plus
	// one view update per containing phone device.
	rows, err := e.mparts.Lookup(rel.StatePost, []string{"pid"}, []rel.Value{pid})
	if err != nil {
		return err
	}
	for _, row := range rows {
		if err := addToGroup(e.view, "cost", row[1], rel.Mul(delta, row[2])); err != nil {
			return err
		}
	}
	if e.variant == Streams {
		// Higher-order maintenance: m_dev over the unfiltered fanout, and
		// the m_price map itself.
		drows, err := e.mdp.Lookup(rel.StatePost, []string{"pid"}, []rel.Value{pid})
		if err != nil {
			return err
		}
		for _, row := range drows {
			if err := addToGroup(e.mdev, "s", row[1], rel.Mul(delta, row[2])); err != nil {
				return err
			}
		}
		if _, err := e.mprice.UpdateKey([]rel.Value{pid}, []string{"price"}, []rel.Value{post[1]}); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) partInsert(row rel.Tuple) error {
	// A fresh part is contained nowhere yet; only m_price changes.
	if e.variant == Streams {
		return e.mprice.Insert(rel.Tuple{row[0], row[1]})
	}
	return nil
}

func (e *Engine) partDelete(row rel.Tuple) error {
	pid := row[0]
	// Containments referencing the part must already be gone.
	if rows, err := e.mparts.Lookup(rel.StatePost, []string{"pid"}, []rel.Value{pid}); err != nil {
		return err
	} else if len(rows) > 0 {
		return fmt.Errorf("sdbt: deleting part %v that still has containments", pid)
	}
	if e.variant == Streams {
		e.mprice.DeleteKey([]rel.Value{pid})
	}
	return nil
}

func (e *Engine) deviceInsert(row rel.Tuple) error {
	if e.variant != Streams {
		return nil
	}
	is := int64(0)
	if row[1].Text() == "phone" {
		is = 1
	}
	return e.mphone.Insert(rel.Tuple{row[0], rel.Int(is)})
}

func (e *Engine) deviceDelete(row rel.Tuple) error {
	if e.variant != Streams {
		return nil
	}
	did := row[0]
	if rows, _ := e.mdp.Lookup(rel.StatePost, []string{"did"}, []rel.Value{did}); len(rows) > 0 {
		return fmt.Errorf("sdbt: deleting device %v that still has containments", did)
	}
	e.mphone.DeleteKey([]rel.Value{did})
	return nil
}

func (e *Engine) deviceFlip(pre, post rel.Tuple) error {
	if e.variant != Streams {
		return fmt.Errorf("sdbt-fixed cannot handle device changes")
	}
	did := pre[0]
	wasPhone := pre[1].Text() == "phone"
	isPhone := post[1].Text() == "phone"
	if wasPhone == isPhone {
		return nil
	}
	is := int64(0)
	if isPhone {
		is = 1
	}
	if _, err := e.mphone.UpdateKey([]rel.Value{did}, []string{"isphone"}, []rel.Value{rel.Int(is)}); err != nil {
		return err
	}
	// The device's parts move in or out of m_parts and the view.
	drows, err := e.mdp.Lookup(rel.StatePost, []string{"did"}, []rel.Value{did})
	if err != nil {
		return err
	}
	if isPhone {
		for _, row := range append([]rel.Tuple(nil), drows...) {
			if err := e.mparts.Insert(rel.Tuple{row[0], row[1], row[2]}); err != nil {
				return err
			}
		}
		// The group's total comes straight from m_dev (the whole point of
		// materializing it): devices with no parts create no group.
		if s, ok := e.mdev.Get(rel.StatePost, []rel.Value{did}); ok && len(drows) > 0 {
			return e.view.Insert(rel.Tuple{did, s[1]})
		}
		return nil
	}
	// Leaving the phone category: drop the group and its m_parts entries.
	for _, row := range append([]rel.Tuple(nil), drows...) {
		e.mparts.DeleteKey([]rel.Value{row[0], row[1]})
	}
	e.view.DeleteKey([]rel.Value{did})
	return nil
}

func (e *Engine) dpChange(row rel.Tuple, sign int64) error {
	if e.variant != Streams {
		return fmt.Errorf("sdbt-fixed cannot handle devices_parts changes")
	}
	did, pid := row[0], row[1]
	p, havePrice := e.mprice.Get(rel.StatePost, []rel.Value{pid})
	ph, havePhone := e.mphone.Get(rel.StatePost, []rel.Value{did})
	isPhone := havePhone && ph[1].AsInt() == 1

	// Maintain m_dp.
	if sign > 0 {
		if err := insertOrAddDP(e.mdp, pid, did); err != nil {
			return err
		}
	} else if cur, ok := e.mdp.Get(rel.StatePost, []rel.Value{pid, did}); ok {
		if cur[2].AsInt() <= 1 {
			e.mdp.DeleteKey([]rel.Value{pid, did})
		} else if _, err := e.mdp.UpdateKey([]rel.Value{pid, did}, []string{"cnt"}, []rel.Value{rel.Sub(cur[2], rel.Int(1))}); err != nil {
			return err
		}
	}
	if !havePrice {
		return nil
	}
	delta := rel.Mul(p[1], rel.Int(sign))

	// Maintain m_dev, dropping the group when the device's last
	// containment disappears.
	if err := addToGroup(e.mdev, "s", did, delta); err != nil {
		return err
	}
	if rows, _ := e.mdp.Lookup(rel.StatePost, []string{"did"}, []rel.Value{did}); len(rows) == 0 {
		e.mdev.DeleteKey([]rel.Value{did})
	}

	if !isPhone {
		return nil
	}
	// Maintain m_parts and the view.
	if sign > 0 {
		if err := insertOrAddDP(e.mparts, pid, did); err != nil {
			return err
		}
	} else if cur, ok := e.mparts.Get(rel.StatePost, []rel.Value{pid, did}); ok {
		if cur[2].AsInt() <= 1 {
			e.mparts.DeleteKey([]rel.Value{pid, did})
		} else if _, err := e.mparts.UpdateKey([]rel.Value{pid, did}, []string{"cnt"}, []rel.Value{rel.Sub(cur[2], rel.Int(1))}); err != nil {
			return err
		}
	}
	if err := addToGroup(e.view, "cost", did, delta); err != nil {
		return err
	}
	// Delete the group when the device no longer has any phone parts.
	if rows, _ := e.mparts.Lookup(rel.StatePost, []string{"did"}, []rel.Value{did}); len(rows) == 0 {
		e.view.DeleteKey([]rel.Value{did})
	}
	return nil
}

// Recompute is a convenience oracle for tests: the view expression as an
// algebra plan evaluated from scratch (uncounted).
func Recompute(ds *workload.Dataset) (*rel.Relation, error) {
	return algebra.Eval(ds.AggPlan(), ds.DB)
}
