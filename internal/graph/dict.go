package graph

// Dict dictionary-encodes arbitrary vertex keys into the dense domain
// H = {0..N-1} (paper §3.1: "all the values from X, Y, S and D are
// translated into integers from the domain H"). Keys are either int64
// (covering BIGINT, DATE and BOOLEAN payloads) or string; exactly one
// key space is used per dictionary. Ids are assigned in first-occurrence
// order, whatever form holds the keys.
//
// The int key space has two forms. EncodeColumnsIntCtx over an empty
// dictionary takes the dense form when its keys span at most a quarter
// of the keys in the stream: a table indexed by key − lo over the
// stream's key range [lo, hi]. String keys, sparse int keys, keys bulk
// encoded into a dictionary that already holds keys and keys appended
// later outside the table's range live in a hash map. A key lives in
// exactly one of the two: the table answers for keys inside its range
// and the map for keys outside it.
type Dict struct {
	ints map[int64]VertexID
	strs map[string]VertexID
	// dense[k-lo] is the id of int key k plus one, or 0 while k is
	// absent, so a fresh table needs no fill and an absent key reads
	// NoVertex. Nil in the hash form.
	dense []VertexID
	lo    int64
	n     VertexID
}

// NewIntDict returns a dictionary over int64 keys.
func NewIntDict(capacity int) *Dict {
	return &Dict{ints: make(map[int64]VertexID, capacity)}
}

// NewStringDict returns a dictionary over string keys.
func NewStringDict(capacity int) *Dict {
	return &Dict{strs: make(map[string]VertexID, capacity)}
}

// Len returns the number of distinct keys seen so far, i.e. |V|.
func (d *Dict) Len() int { return int(d.n) }

// Form names the dictionary's form: "dense" once a bulk encode took the
// dense table, else "hash".
func (d *Dict) Form() string {
	if d.dense != nil {
		return "dense"
	}
	return "hash"
}

// denseSlot returns k's slot of the dense table, or -1 outside its
// range. The unsigned difference never overflows.
func (d *Dict) denseSlot(k int64) int {
	if i := uint64(k) - uint64(d.lo); i < uint64(len(d.dense)) {
		return int(i)
	}
	return -1
}

// EncodeInt interns an int64 key, assigning the next dense id on first
// sight.
func (d *Dict) EncodeInt(k int64) VertexID {
	if i := d.denseSlot(k); i >= 0 {
		if d.dense[i] == 0 {
			d.n++
			d.dense[i] = d.n
		}
		return d.dense[i] - 1
	}
	if id, ok := d.ints[k]; ok {
		return id
	}
	id := d.n
	d.ints[k] = id
	d.n++
	return id
}

// EncodeString interns a string key.
func (d *Dict) EncodeString(k string) VertexID {
	if id, ok := d.strs[k]; ok {
		return id
	}
	id := d.n
	d.strs[k] = id
	d.n++
	return id
}

// LookupInt returns the id of an int64 key, or NoVertex when the key is
// not a vertex of the graph (the initial filtering step of §3.1).
func (d *Dict) LookupInt(k int64) VertexID {
	if i := d.denseSlot(k); i >= 0 {
		return d.dense[i] - 1
	}
	if id, ok := d.ints[k]; ok {
		return id
	}
	return NoVertex
}

// LookupString returns the id of a string key, or NoVertex.
func (d *Dict) LookupString(k string) VertexID {
	if id, ok := d.strs[k]; ok {
		return id
	}
	return NoVertex
}
