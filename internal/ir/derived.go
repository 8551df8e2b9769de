package ir

import "sync"

// derivedMemo holds the values derived from one finalized snapshot of a
// module (see Derived). Finalize empties it, so a derived value lives
// exactly as long as the snapshot it was computed from.
type derivedMemo struct {
	mu   sync.Mutex
	vals map[any]*derivedEntry
}

type derivedEntry struct {
	once sync.Once
	val  any
}

// Derived returns the value for key derived from m's current finalized
// snapshot, calling build(m) on first use. Each key is built at most once
// per Finalize generation: concurrent first callers wait for the one
// build instead of running their own. build may itself call Derived on m
// with a different key.
//
// Each calling package keys its values with an unexported type of its
// own, so keys of different packages cannot collide, and always pairs a
// key with the same T.
func Derived[T any](m *Module, key any, build func(*Module) T) T {
	m.memo.mu.Lock()
	e := m.memo.vals[key]
	if e == nil {
		if m.memo.vals == nil {
			m.memo.vals = make(map[any]*derivedEntry)
		}
		e = &derivedEntry{}
		m.memo.vals[key] = e
	}
	m.memo.mu.Unlock()
	e.once.Do(func() { e.val = build(m) })
	return e.val.(T)
}

// dropDerived forgets every value derived from the previous snapshot.
func (m *Module) dropDerived() {
	m.memo.mu.Lock()
	m.memo.vals = nil
	m.memo.mu.Unlock()
}
