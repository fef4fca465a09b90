// Package epochcall is the seeded fixture for the epochcall analyzer: one
// deliberate violation, one blessed suppression, and a plain function that
// shares a method's name and is not flagged.
package epochcall

import "idivm/internal/storage"

// closeEpoch ends a table's epoch outside the epoch protocol.
func closeEpoch(h *storage.Handle) {
	h.EndEpoch() // violation: a second epoch lifecycle
}

// rollback is a blessed exception.
func rollback(h *storage.Handle) {
	//ivmlint:allow epochcall — fixture bless: test scaffolding owns this epoch
	h.RollbackEpoch()
}

// BeginEpoch is a function, not the storage method.
func BeginEpoch() {}

func begin() { BeginEpoch() }
