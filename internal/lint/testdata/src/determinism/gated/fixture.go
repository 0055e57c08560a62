// Fixture for determinism, checked under a result-producing import
// path.
package fixture

import "sort"

// unsortedAppend builds output in map-iteration order: flagged.
func unsortedAppend(m map[string]int) []string {
	var out []string
	for k := range m { // want "map iteration writes to slice \"out\" in nondeterministic order"
		out = append(out, k)
	}
	return out
}

// collectThenSort is the sanctioned pattern.
func collectThenSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sliceSortAlso passes: slices.Sort-style and sort.Slice both count.
func sliceSortAlso(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mapToMap is order-independent: writes into maps are ignored.
func mapToMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// scratchInsideLoop: per-iteration slices born in the body are not
// accumulated output.
func scratchInsideLoop(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		tmp := make([]int, 0, len(vs))
		tmp = append(tmp, vs...)
		total += len(tmp)
	}
	return total
}

// indexAssign through an element is a write to the outer slice too.
func indexAssign(m map[int]int, out []int) {
	for k, v := range m { // want "map iteration writes to slice \"out\" in nondeterministic order"
		out[k%len(out)] = v
	}
}

// annotatedRange: an allowed iteration (order proven irrelevant by the
// caller) is suppressible like any finding.
func annotatedRange(m map[string]int) []string {
	var out []string
	//gsqlvet:allow determinism caller treats out as an unordered set
	for k := range m {
		out = append(out, k)
	}
	return out
}
