package db

import "sync"

// memoSize is the capacity of every Memo: 64 entries, like the serving
// layer's plan cache.
const memoSize = 64

// Memo is a bounded store of opaque values keyed by string. Each Database
// owns one, so what is kept there lives and dies with the catalog it was
// computed against: internal/sqlview keeps a template plan per statement
// shape in it. Past memoSize entries it evicts the least recently used one.
// It is safe for concurrent use; its lock is held only to find or store a
// value, never while a caller uses one.
type Memo struct {
	mu    sync.Mutex
	clock uint64
	m     map[string]*memoEntry
}

type memoEntry struct {
	val  any
	used uint64 // the clock at its last Get or Put
}

// Get returns the value stored under key. The key is given as bytes, so a
// caller that builds it in a buffer looks it up without allocating.
func (m *Memo) Get(key []byte) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.m[string(key)]
	if !ok {
		return nil, false
	}
	m.clock++
	e.used = m.clock
	return e.val, true
}

// Put stores v under key, replacing what was there.
func (m *Memo) Put(key string, v any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.clock++
	if e, ok := m.m[key]; ok {
		e.val, e.used = v, m.clock
		return
	}
	if m.m == nil {
		m.m = make(map[string]*memoEntry, memoSize)
	}
	if len(m.m) >= memoSize {
		var lru string
		oldest := m.clock
		for k, e := range m.m {
			if e.used < oldest {
				lru, oldest = k, e.used
			}
		}
		delete(m.m, lru)
	}
	m.m[key] = &memoEntry{val: v, used: m.clock}
}

// Len returns the number of stored values.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
