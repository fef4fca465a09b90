package rel_test

import (
	"math/rand"
	"testing"

	"idivm/internal/rel"
	"idivm/internal/rel/epochtest"
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
