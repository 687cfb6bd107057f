package sparql

import "sync"

// Join-key scratch buffers. Rendering a hash-join key walks every term
// of a row; doing that through strings.Builder allocates per call,
// which on a 100k-row probe side is 100k short-lived garbage objects.
// The pool hands out reusable byte slices instead: render into the
// buffer, look up (or copy once for map inserts), put it back.
var keyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 128)
		return &b
	},
}

// getKeyBuf returns a scratch buffer for AppendKey. Callers must
// return it with putKeyBuf and must not retain views into it.
func getKeyBuf() *[]byte { return keyBufPool.Get().(*[]byte) }

// putKeyBuf returns a scratch buffer to the pool.
func putKeyBuf(b *[]byte) {
	// Don't cache pathologically large buffers: one wide row would pin
	// its arena forever.
	if cap(*b) > 1<<16 {
		return
	}
	keyBufPool.Put(b)
}

// keyColumn renders the join key of every row exactly once, returning
// one key string per row. Building the column up front replaces the
// per-comparator / per-probe Key calls that used to re-render the same
// row O(log n) or O(matches) times. All keys share a single backing
// arena, so the column costs one large allocation plus the string
// headers instead of one allocation per row.
func keyColumn(rows []Binding, vars []Var) []string {
	if len(rows) == 0 {
		return nil
	}
	// Render everything into one arena, remembering the end offset of
	// each row's key.
	arena := make([]byte, 0, len(rows)*32)
	ends := make([]int, len(rows))
	for i, row := range rows {
		arena = row.AppendKey(arena, vars)
		ends[i] = len(arena)
	}
	// One copy of the arena into an immutable string, then slice the
	// per-row keys out of it for free.
	all := string(arena)
	keys := make([]string, len(rows))
	start := 0
	for i, end := range ends {
		keys[i] = all[start:end]
		start = end
	}
	return keys
}
