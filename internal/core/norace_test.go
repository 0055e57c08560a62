//go:build !race

package core

// singlePairBytesPerVertex bounds what one single-pair query over a
// graph index allocates per vertex; see race_test.go.
const singlePairBytesPerVertex = 12
