package rel

import "testing"

// The digest-table programs work on a universe of sixteen digests whose top
// byte — which alone decides the home cell of a table this small — is chosen
// so that they crowd three places: keys 0–7 are at home in the last cell
// (their cluster wraps the end of the slice), 8–11 in cell 0 (right behind
// the wrap) and 12–15 in the middle.
func tableDigest(k byte) uint64 {
	top := [...]uint64{0xff, 0xff, 0x00, 0x80}[k%16/4]
	return top<<56 | uint64(k%16)
}

// Operation codes of a digest-table program: two bytes, code and key.
const (
	dtSet  = iota // file key under the operation's index (or overwrite its head)
	dtGet         // look key up
	dtDel         // delete key if present
	dtGrow        // resize by half, as an insert at the load bound would; fit when key is odd
	dtOps
)

// runDigestTable runs program against a map oracle and checks the table's
// invariants (digestTable.check: every stored digest is found by probing, n
// counts the occupied cells, the load bound holds) and every key of the
// universe after each operation.
func runDigestTable(t *testing.T, program []byte) {
	t.Helper()
	var tab digestTable
	oracle := map[uint64]int32{}
	for pc := 0; pc+2 <= len(program); pc += 2 {
		op, k := program[pc]%dtOps, program[pc+1]
		d := tableDigest(k)
		switch op {
		case dtSet:
			if i := tab.cell(d); tab.cells[i].head < 0 {
				tab.cells[i] = dcell{d, int32(pc)}
				tab.n++
			} else {
				tab.cells[i].head = int32(pc)
			}
			oracle[d] = int32(pc)
		case dtGet: // every key is read below
		case dtDel:
			if i := tab.find(d); i >= 0 {
				tab.del(i)
			} else if _, ok := oracle[d]; ok {
				t.Fatalf("op %d: digest %#x is in the oracle but not found", pc/2, d)
			}
			delete(oracle, d)
		case dtGrow:
			if k%2 == 1 {
				tab.fit()
			} else {
				tab.resize(max(8, len(tab.cells)+len(tab.cells)/2))
			}
		}
		if err := tab.check(); err != nil {
			t.Fatalf("op %d (code %d, key %d): %v", pc/2, op, k%16, err)
		}
		if tab.n != len(oracle) {
			t.Fatalf("op %d: n = %d, oracle holds %d", pc/2, tab.n, len(oracle))
		}
		for u := byte(0); u < 16; u++ {
			d, got := tableDigest(u), int32(-1)
			if i := tab.find(d); i >= 0 {
				got = tab.cells[i].head
			}
			if want, ok := oracle[d]; (ok && got != want) || (!ok && got >= 0) {
				t.Fatalf("op %d: key %d resolves to %d; oracle: %d, %v", pc/2, u, got, want, ok)
			}
		}
	}
}

// digestTableSeeds are the hand-written programs of the fuzz target's seed
// corpus; tier-1 replays them (as a test, and again through the target).
var digestTableSeeds = map[string][]byte{
	// Keys 0–2 are all at home in the last cell: the cluster is last, 0, 1.
	"cluster-wraps-the-end": {dtSet, 0, dtSet, 1, dtSet, 2, dtGet, 2, dtDel, 0, dtGet, 1, dtGet, 2, dtDel, 2, dtDel, 1},
	// Key 8 sits in its home, cell 0, right behind key 0 in the last cell:
	// deleting key 0 must leave it there — moved back it would be ahead of
	// its home. Key 1 (home: last, parked in cell 1) must move.
	"shift-stops-at-a-home": {dtSet, 0, dtSet, 8, dtSet, 1, dtDel, 0, dtGet, 8, dtGet, 1, dtDel, 8, dtGet, 1},
	// The same with the hole in the middle of a non-wrapping cluster.
	"shift-inside-a-cluster": {dtSet, 12, dtSet, 13, dtSet, 14, dtSet, 15, dtDel, 13, dtGet, 15, dtDel, 12, dtGet, 14},
	"delete-of-absent":       {dtDel, 3, dtSet, 3, dtDel, 4, dtDel, 11, dtDel, 3, dtDel, 3},
	// The seventh digest of an eight-cell table grows it while six of one
	// cluster straddle the end; later growth and a trim rehash the same keys.
	"growth-mid-cluster": {dtSet, 0, dtSet, 1, dtSet, 2, dtSet, 3, dtSet, 8, dtSet, 9, dtSet, 4, dtGet, 9, dtSet, 5, dtSet, 6, dtSet, 7,
		dtGrow, 0, dtDel, 0, dtDel, 8, dtGrow, 1, dtGet, 9, dtSet, 10, dtSet, 12},
	"overwrite-a-head": {dtSet, 5, dtSet, 5, dtSet, 9, dtSet, 5, dtDel, 5, dtSet, 9},
}

func TestDigestTableSeeds(t *testing.T) {
	for name, prog := range digestTableSeeds {
		t.Run(name, func(t *testing.T) { runDigestTable(t, prog) })
	}
}

// FuzzDigestTable runs byte programs of set / get / delete / grow against the
// map the table replaced.
func FuzzDigestTable(f *testing.F) {
	for _, prog := range digestTableSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2*maxDigestOps {
			prog = prog[:2*maxDigestOps]
		}
		runDigestTable(t, prog)
	})
}

const maxDigestOps = 512
