package rel

import "fmt"

// CheckInvariants verifies the structural invariants of tableCore: idOf and
// posOf are inverse bijections between positions and live ids, every other
// id is on the free list exactly once, byKey maps every row's key to its
// id, and every secondary index lists every row exactly once, under the
// bucket its values encode to, with no empty bucket — and none of them is
// over the primary key. The epochtest driver calls it after every operation
// of a program (it finds the method through an interface assertion).
func (t *Table) CheckInvariants() error {
	c := t.core
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.idOf) != len(c.rows) || len(c.byKey) != len(c.rows) {
		return fmt.Errorf("len(rows)=%d, len(idOf)=%d, len(byKey)=%d", len(c.rows), len(c.idOf), len(c.byKey))
	}
	for p, id := range c.idOf {
		if id < 0 || int(id) >= len(c.posOf) || int(c.posOf[id]) != p {
			return fmt.Errorf("position %d holds id %d, whose posOf does not point back", p, id)
		}
		if got, ok := c.byKey[KeyOf(c.rows[p], c.keyIdx)]; !ok || got != id {
			return fmt.Errorf("byKey of row %v = %d, %v; want id %d", c.rows[p], got, ok, id)
		}
	}
	if len(c.rows)+len(c.free) != len(c.posOf) {
		return fmt.Errorf("%d live + %d free ids != %d allocated", len(c.rows), len(c.free), len(c.posOf))
	}
	seen := make(map[int32]bool)
	for _, id := range c.free {
		if seen[id] || c.posOf[id] != -1 {
			return fmt.Errorf("free id %d is listed twice or still has position %d", id, c.posOf[id])
		}
		seen[id] = true
	}
	for _, e := range c.secondary {
		if e.sig == c.keySig {
			return fmt.Errorf("a secondary index duplicates the primary key")
		}
		if e.h == nil {
			continue
		}
		n, listed := 0, make(map[int32]bool)
		for k, b := range e.h.buckets {
			if len(b.ids) == 0 {
				return fmt.Errorf("index %q keeps an empty bucket", e.sig)
			}
			for _, id := range b.ids {
				if id < 0 || int(id) >= len(c.posOf) || c.posOf[id] < 0 || listed[id] {
					return fmt.Errorf("index %q lists id %d, which is dead or listed twice", e.sig, id)
				}
				listed[id] = true
				if KeyOf(c.rows[c.posOf[id]], e.h.attrIdx) != k {
					return fmt.Errorf("index %q lists row %v under the wrong key", e.sig, c.rows[c.posOf[id]])
				}
			}
			n += len(b.ids)
		}
		if n != len(c.rows) {
			return fmt.Errorf("index %q has %d entries for %d rows", e.sig, n, len(c.rows))
		}
	}
	return nil
}

// BucketScans reports how many bucket entries the secondary indexes have
// examined while unregistering rows (hashIndex.scanned), summed over them.
func (t *Table) BucketScans() int {
	c := t.core
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, e := range c.secondary {
		if e.h != nil {
			n += e.h.scanned
		}
	}
	return n
}
