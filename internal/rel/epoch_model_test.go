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
	for _, eng := range []storage.Engine{storage.NewMem(), storage.NewSharded(3)} {
		run := func(t *testing.T, prog []byte) {
			t.Helper()
			tab, err := eng.Create("t", epochtest.Schema())
			if err != nil {
				t.Fatal(err)
			}
			epochtest.Run(t, tab, prog)
		}
		t.Run(eng.Kind(), func(t *testing.T) {
			for name, prog := range epochtest.Seeds() {
				t.Run(name, func(t *testing.T) { run(t, prog) })
			}
			rng := rand.New(rand.NewSource(31))
			for i := 0; i < 200; i++ {
				prog := epochtest.RandomProg(rng, 20+rng.Intn(60))
				if run(t, prog); t.Failed() {
					t.Fatalf("program %d failed: %v", i, prog)
				}
			}
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
