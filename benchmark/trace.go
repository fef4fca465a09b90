package main

// The outside-in trace: the traced run replaces System.MaintainAll (and,
// on the serving workload, the dispatcher's commit) by the same exported
// calls with a span around each. Nothing inside the program is
// instrumented; spans record only what this file can see from the calls
// it makes. The executor's own per-phase times (ivm.PhaseCosts) are read
// and laid out as synthetic child spans of the script span, so a script's
// self time is what the executor spent outside its steps.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"idivm/internal/db"
	"idivm/internal/ivm"
	"idivm/internal/rel"
	"idivm/internal/storage"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is -1 for a round.
type span struct {
	ID        int32  `json:"id"`
	Parent    int32  `json:"parent"`
	Name      string `json:"name"`
	View      string `json:"view,omitempty"`
	Round     int32  `json:"round"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Synthetic bool   `json:"synthetic,omitempty"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	round int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: t.round, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// synthetic adds a child of the innermost open span with a duration the
// callee measured itself, laid after the previous synthetic sibling.
func (t *tracer) synthetic(name string, at *int64, d time.Duration) {
	if d <= 0 {
		return
	}
	parent := t.stack[len(t.stack)-1]
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Name: name, Round: t.round,
		Start: *at, End: *at + int64(d), Synthetic: true})
	*at += int64(d)
}

// selfTimes returns each span name's total self time: its duration minus
// the part its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// total returns the summed duration of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// traceFileRounds bounds the rounds whose spans are written out; the
// aggregates printed and reported cover every round.
const traceFileRounds = 1000

// write stores the spans of the first traceFileRounds rounds plus the
// self-time table as benchmark/out/<workload>.trace.json.
func (t *tracer) write(dir, workload string, rounds int) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "{\"workload\": %q, \"traced_rounds\": %d, \"spans_of_first_rounds\": %d,\n \"self_ms\": {", workload, rounds, traceFileRounds)
	for i, n := range names {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "%q: %.3f", n, ms(self[n]))
	}
	fmt.Fprint(w, "},\n \"spans\": [\n")
	enc := json.NewEncoder(w)
	first := true
	for _, s := range t.spans {
		if s.Round >= traceFileRounds {
			continue
		}
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// roundTally accumulates what the traced rounds report beyond span times.
type roundTally struct {
	rounds          int
	mods            int
	logLen          int
	logSeen         int // Σ over views of log entries handed to CompactLog
	netChanges      int
	diffTuples      int
	viewDiffTuples  int
	viewRowsTouched int
	phaseCost       [4]rel.CostCounter
	phaseTime       [4]time.Duration
	levelTime       [2]time.Duration // level 0, level ≥ 1
	viewTime        map[string]time.Duration
	advanceRows     int
	firstMod        time.Duration
}

// epochTables lists what System.MaintainAll advances under PinEpochs:
// every view and its caches, then every logged base table.
func (b *bench) epochTables() []*storage.Handle {
	var out []*storage.Handle
	seen := map[string]bool{}
	add := func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		if t, err := b.d.Table(name); err == nil {
			out = append(out, t)
		}
	}
	for _, name := range b.sys.ViewNames() {
		v, _ := b.sys.View(name)
		add(name)
		for _, c := range v.Script.Caches {
			add(c.Name)
		}
	}
	for _, name := range b.d.TableNames() {
		if b.d.LoggingEnabled(name) {
			add(name)
		}
	}
	return out
}

// tracedRound is one round by direct calls, each in a span: the eager
// applies, then System.MaintainAll's sequential body. On the serving
// workload the dispatcher idles meanwhile (it has nothing queued), and the
// round hooks are called as MaintainAll calls them so the seqlock readers
// rely on keeps turning.
func (b *bench) tracedRound(tr *tracer, tally *roundTally, mods []mod) error {
	root := tr.begin("round")
	defer tr.end(root)

	ap := tr.begin("db.apply")
	for i := range mods {
		if i == 0 {
			fm := tr.begin("db.first_mod")
			b.applyMod(&mods[0])
			tr.end(fm)
			tally.firstMod += time.Duration(tr.spans[fm].End - tr.spans[fm].Start)
			continue
		}
		b.applyMod(&mods[i])
	}
	tr.end(ap)
	tally.rounds++
	tally.mods += len(mods)
	tally.logLen += len(b.d.Log())

	ma := tr.begin("ivm.maintain_all")
	defer tr.end(ma)
	sys := b.sys
	if sys.PinEpochs {
		sys.PinAllEpochs()
	}
	for _, name := range sys.ViewNames() {
		if !b.d.DerivedLoggingEnabled(name) {
			continue
		}
		if t, err := b.d.Table(name); err == nil && !t.InEpoch() {
			be := tr.begin("storage.begin_epoch")
			t.BeginEpoch()
			tr.end(be)
		}
	}
	if sys.Hooks.RoundBegin != nil {
		sys.Hooks.RoundBegin()
	}
	var roundErr error
	for _, name := range sys.ViewNames() {
		if roundErr = b.tracedView(tr, tally, name); roundErr != nil {
			break
		}
	}
	if sys.Hooks.UnpinBegin != nil {
		sys.Hooks.UnpinBegin()
	}
	switch {
	case roundErr != nil:
		b.d.ClearDerivedLogs()
	case sys.PinEpochs:
		cl := tr.begin("db.clear_log")
		b.d.ClearLog()
		tr.end(cl)
		adv := tr.begin("storage.advance_epoch")
		for _, t := range b.epochTables() {
			tally.advanceRows += t.Len()
			t.AdvanceEpoch()
		}
		tr.end(adv)
	default:
		rl := tr.begin("db.reset_log")
		b.d.ResetLog()
		tr.end(rl)
	}
	if sys.Hooks.RoundEnd != nil {
		sys.Hooks.RoundEnd()
	}
	return roundErr
}

// tracedView maintains one view the way System.Maintain does: compact
// the log (plus the derived logs of its cascade parents), populate the
// base i-diff instances, run the Δ-script.
func (b *bench) tracedView(tr *tracer, tally *roundTally, name string) error {
	v, _ := b.sys.View(name)
	vs := tr.begin("ivm.view")
	tr.spans[vs].View = name
	defer func() {
		tr.end(vs)
		d := time.Duration(tr.spans[vs].End - tr.spans[vs].Start)
		lvl := 0
		if v.Level > 0 {
			lvl = 1
		}
		tally.levelTime[lvl] += d
		tally.viewTime[name] += d
	}()

	schemaOf := func(t string) (rel.Schema, error) {
		tab, err := b.d.Table(t)
		if err != nil {
			return rel.Schema{}, err
		}
		return tab.Schema(), nil
	}
	cs := tr.begin("ivm.compact")
	log := b.d.Log()
	if len(v.Sources) > 0 {
		merged := append([]db.Modification(nil), log...)
		for _, src := range v.Sources {
			merged = append(merged, b.d.DerivedLog(src)...)
		}
		log = merged
	}
	changes, err := ivm.CompactLog(log, schemaOf)
	tr.end(cs)
	if err != nil {
		return err
	}
	tally.logSeen += len(log)
	for _, nc := range changes {
		tally.netChanges += len(nc.Inserts) + len(nc.Deletes) + len(nc.Updates)
	}

	is := tr.begin("ivm.instances")
	bindings := make(map[string]*rel.Relation)
	for _, table := range v.Script.Base.Tables() {
		schemas := v.Script.Base[table]
		for i, ds := range schemas {
			bindings[ivm.BaseBindName(table, i)] = rel.NewRelation(ds.RelSchema())
		}
		nc, ok := changes[table]
		if !ok {
			continue
		}
		insts, err := ivm.PopulateInstances(nc, schemas)
		if err != nil {
			tr.end(is)
			return err
		}
		for _, inst := range insts {
			for i, ds := range schemas {
				if ds.Equal(inst.Schema) {
					bindings[ivm.BaseBindName(table, i)] = inst.Rows
					tally.diffTuples += inst.Len()
				}
			}
		}
	}
	tr.end(is)

	ss := tr.begin("ivm.script")
	sys := b.sys
	pc, err := ivm.RunScriptOpts(b.d, v.Script, bindings, ivm.ExecOptions{Workers: sys.Workers,
		Interpret: sys.Interpret, OpWorkers: sys.OpWorkers, BatchSize: sys.BatchSize, SkewThreshold: sys.SkewThreshold})
	if err == nil {
		at := tr.spans[ss].Start
		for ph := range pc.Time {
			tr.synthetic(phaseSpanNames[ph], &at, pc.Time[ph])
			tally.phaseTime[ph] += pc.Time[ph]
			tally.phaseCost[ph].Add(pc.Cost[ph])
		}
		tally.viewDiffTuples += pc.ViewDiffTuples
		tally.viewRowsTouched += pc.ViewRowsTouched
	}
	tr.end(ss)
	return err
}

// phaseSpanNames names the executor's four phases (ivm.Phase order: cache
// compute, cache apply, view compute, view apply).
var phaseSpanNames = [4]string{
	"ivm.phase.cache_compute", "ivm.phase.cache_apply", "ivm.phase.view_compute", "ivm.phase.view_apply",
}
