package db

import (
	"container/list"
	"sync"
)

// memoSize is the capacity of every Memo.
const memoSize = 64

// Memo is a bounded store of opaque values keyed by string. Each Database
// owns one, so what is kept there lives and dies with the catalog it was
// computed against: internal/sqlview keeps a template plan per statement
// shape in it, with the template's compiled read plans. Past memoSize
// entries it evicts the least recently used one, in constant time. It is
// safe for concurrent use; its lock is held only to find or store a value,
// never while a caller uses one.
type Memo struct {
	mu sync.Mutex
	ll list.List // of *memoEntry; front = most recently used
	m  map[string]*list.Element
}

type memoEntry struct {
	key string
	val any
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
	m.ll.MoveToFront(e)
	return e.Value.(*memoEntry).val, true
}

// Put stores v under key, replacing what was there.
func (m *Memo) Put(key string, v any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.m[key]; ok {
		e.Value.(*memoEntry).val = v
		m.ll.MoveToFront(e)
		return
	}
	if m.m == nil {
		m.m = make(map[string]*list.Element, memoSize)
	}
	if m.ll.Len() >= memoSize {
		lru := m.ll.Back()
		delete(m.m, m.ll.Remove(lru).(*memoEntry).key)
	}
	m.m[key] = m.ll.PushFront(&memoEntry{key: key, val: v})
}

// Len returns the number of stored values.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}
