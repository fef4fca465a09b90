package rel

import (
	"sync"
	"testing"
)

// TestBindingConvertsOnceUnderConcurrentReaders asks one binding for both of
// its forms from many goroutines at once — the shape of a step result read by
// concurrently scheduled steps, and of a round's base instance read by
// concurrently maintained views — and requires every reader to get the same
// relation and the same batch, holding the rows the binding was made from.
// Under -race it is the check on the two once-guards.
func TestBindingConvertsOnceUnderConcurrentReaders(t *testing.T) {
	sch := NewSchema([]string{"k", "v"}, []string{"k"})
	src := NewRelation(sch)
	for i := 0; i < 100; i++ {
		src.Add(Tuple{Int(int64(i)), String("v")})
	}
	for name, mk := range map[string]func() *Binding{
		"from tuples":  func() *Binding { return BindRelation(src) },
		"from columns": func() *Binding { return BindBatch(FromRelation(src)) },
	} {
		g := mk()
		if g.Len() != src.Len() {
			t.Fatalf("%s: Len %d, want %d", name, g.Len(), src.Len())
		}
		const readers = 8
		rels, batches := make([]*Relation, readers), make([]*Batch, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			//ivmlint:allow gostmt — test readers asking one binding for both forms at once
			go func(r int) {
				defer wg.Done()
				if r%2 == 0 {
					rels[r], batches[r] = g.Relation(), g.Batch()
				} else {
					batches[r], rels[r] = g.Batch(), g.Relation()
				}
			}(r)
		}
		wg.Wait()
		for r := range rels {
			if rels[r] != rels[0] || batches[r] != batches[0] {
				t.Fatalf("%s: reader %d was handed its own conversion", name, r)
			}
		}
		if !rels[0].EqualSet(src) || !batches[0].Materialize().EqualSet(src) {
			t.Fatalf("%s: the conversions do not hold the rows the binding was made from", name)
		}
	}
}
