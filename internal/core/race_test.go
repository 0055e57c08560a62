//go:build race

package core

// singlePairBytesPerVertex bounds what one single-pair query over a
// graph index allocates per vertex (TestIndexSinglePairPoolsScratch).
// The race detector makes sync.Pool drop pooled scratch at random, so a
// pooled query reads up to ~15 bytes a vertex here; one unpooled
// scratch per query, ~41 bytes a vertex, still exceeds this bound.
const singlePairBytesPerVertex = 25
