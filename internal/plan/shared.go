package plan

import "graphsql/internal/storage"

// Rename is a zero-cost schema relabeling: it exposes its input under
// a new qualifier (derived-table and CTE aliases).
type Rename struct {
	Input Node
	Sch   storage.Schema
}

// Schema implements Node.
func (r *Rename) Schema() storage.Schema { return r.Sch }

// Child implements Node.
func (r *Rename) Child(i int) Node { return nth(i, r.Input) }

// Describe implements Node.
func (r *Rename) Describe() string { return "Rename" }

// Shared marks a subplan referenced from several places (a CTE body);
// the executor materializes it once per execution and reuses the
// chunk.
type Shared struct {
	Input Node
	Name  string
}

// Schema implements Node.
func (s *Shared) Schema() storage.Schema { return s.Input.Schema() }

// Child implements Node.
func (s *Shared) Child(i int) Node { return nth(i, s.Input) }

// Describe implements Node.
func (s *Shared) Describe() string { return "Shared " + s.Name }
