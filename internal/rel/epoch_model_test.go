package rel_test

import (
	"math/rand"
	"testing"

	"idivm/internal/rel"
	"idivm/internal/rel/epochtest"
	"idivm/internal/storage"
)

func newModelTable() *rel.Table { return rel.MustNewTable("t", epochtest.Schema()) }

// The hand-written corner cases of the undo overlay (see epochtest.Seeds),
// each compared with the full-copy oracle after every operation.
func TestTableEpochSeeds(t *testing.T) {
	for name, prog := range epochtest.Seeds() {
		t.Run(name, func(t *testing.T) { epochtest.Run(t, newModelTable(), prog) })
	}
}

// Random write × epoch-transition programs against the full-copy oracle.
func TestTableEpochRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		prog := epochtest.RandomProg(rng, 20+rng.Intn(60))
		epochtest.Run(t, newModelTable(), prog)
		if t.Failed() {
			t.Fatalf("program %d failed: %v", i, prog)
		}
	}
}

// The same programs with every key digest cut to two bits: an index then has
// at most four chains, so nearly every chain mixes keys and each operation
// runs reader verification, DeleteWhere's "chain only partly matches" branch
// and head, tail and only-entry unlinks — on the mem engine (a rel.Table,
// which also checks its chain invariants after every operation) and on a
// three-shard table of them, against the full-copy oracle. Correctness must
// never rest on the digest.
func TestTableEpochUnderCollidingDigests(t *testing.T) {
	defer any(newModelTable()).(interface{ NarrowDigests() func() }).NarrowDigests()()
	runModelOnEngines(t)
}

// And with the digests whole but only four home cells per digest table
// (SqueezeHomes): every probe, insert, growth and backward-shift deletion of
// the flat table then happens inside a long cluster of unrelated digests, one
// of them wrapping the end of the slice, and CheckInvariants verifies after
// every operation that each stored digest is still found by probing.
func TestTableEpochUnderSqueezedHomes(t *testing.T) {
	defer any(newModelTable()).(interface{ SqueezeHomes() func() }).SqueezeHomes()()
	runModelOnEngines(t)
}

// runModelOnEngines runs the seed programs, random programs and the
// instance-versus-tuple-by-tuple differential on the mem engine and on three
// shards.
func runModelOnEngines(t *testing.T) {
	for _, eng := range []storage.Engine{storage.NewMem(), storage.NewSharded(3)} {
		create := func() storage.Table {
			tab, err := eng.Create("t", epochtest.Schema())
			if err != nil {
				t.Fatal(err)
			}
			return tab
		}
		t.Run(eng.Kind(), func(t *testing.T) {
			for name, prog := range epochtest.Seeds() {
				t.Run(name, func(t *testing.T) { epochtest.Run(t, create(), prog) })
			}
			rng := rand.New(rand.NewSource(31))
			for i := 0; i < 200; i++ {
				prog := epochtest.RandomProg(rng, 20+rng.Intn(60))
				if epochtest.Run(t, create(), prog); t.Failed() {
					t.Fatalf("program %d failed: %v", i, prog)
				}
			}
			epochtest.RunInstances(t, rng, 60, func() (epochtest.InstanceTable, *rel.CostCounter) {
				h, cost := storage.NewHandle(create()), new(rel.CostCounter)
				h.SetCounter(cost)
				return h, cost
			})
		})
	}
}

// maxFuzzOps bounds a fuzz input: the checks after every operation make a
// program's cost linear in its length, and corners need few operations.
const maxFuzzOps = 256

// FuzzTableEpoch decodes the input as a program of writes and epoch
// transitions (epochtest.OpSize bytes per operation) and runs it against
// the full-copy oracle.
func FuzzTableEpoch(f *testing.F) {
	for _, prog := range epochtest.Seeds() {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > maxFuzzOps*epochtest.OpSize {
			prog = prog[:maxFuzzOps*epochtest.OpSize]
		}
		epochtest.Run(t, newModelTable(), prog)
	})
}
