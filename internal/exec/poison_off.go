//go:build !gsqlpoison

package exec

import "graphsql/internal/storage"

// poisoning reports whether this build scribbles over reused batches;
// see poison.go.
const poisoning = false

// retire hands a batch's owner back the batch it may now overwrite.
// Only a poisoning build (poison.go) scribbles over it first.
func retire(c *storage.Chunk, _ bool) *storage.Chunk { return c }
