package storage

import "idivm/internal/rel"

// memEngine is the backend: each table is a single rel.Table —
// row storage, primary-key hash index, lazily built secondary indexes and
// the epoch's undo overlay (the pre-state), all behind one RWMutex.
type memEngine struct{}

// NewMem returns the in-memory engine.
func NewMem() Engine { return memEngine{} }

// Create implements Engine.
func (memEngine) Create(name string, schema rel.Schema) (Table, error) {
	return rel.NewTable(name, schema)
}

// rel.Table is the reference Table implementation.
var _ Table = (*rel.Table)(nil)
