// Fixture for determinism, checked under an import path outside the
// result-path gate: no findings.
package fixture

func unsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
