package main

import "testing"

func TestSelfTime(t *testing.T) {
	n := &spanNode{Name: "parent", StartUS: 100, DurUS: 100, Children: []*spanNode{
		{Name: "a", StartUS: 110, DurUS: 20}, // [110,130)
		{Name: "b", StartUS: 120, DurUS: 30}, // [120,150) overlaps a: union [110,150) = 40
		{Name: "c", StartUS: 190, DurUS: 50}, // [190,240) clipped to [190,200) = 10
		{Name: "d", StartUS: 125, DurUS: 5},  // inside the union already
		{Name: "e", StartUS: 300, DurUS: 10}, // outside the parent
	}}
	if got := n.selfUS(); got != 50 {
		t.Errorf("selfUS = %d, want 100 - (40 + 10) = 50", got)
	}
	leaf := &spanNode{StartUS: 5, DurUS: 7}
	if got := leaf.selfUS(); got != 7 {
		t.Errorf("leaf selfUS = %d, want its duration", got)
	}
}

func TestFoldTree(t *testing.T) {
	rows := int64(3)
	root := &spanNode{Name: "query", DurUS: 1000, Children: []*spanNode{
		{Name: "cache", StartUS: 1, DurUS: 2},
		{Name: "plan", StartUS: 4, DurUS: 40, Children: []*spanNode{{Name: "fingerprint", StartUS: 4, DurUS: 10}}},
		{Name: "execute", StartUS: 50, DurUS: 900, Children: []*spanNode{
			{Name: "Limit", StartUS: 60, DurUS: 880, Batches: 1, Rows: &rows, Children: []*spanNode{
				{Name: "Sort keys=3", StartUS: 60, DurUS: 880, Children: []*spanNode{
					{Name: "Filter (w > ?1)", StartUS: 60, DurUS: 300, Children: []*spanNode{
						{Name: "Scan friends AS friends", StartUS: 61, DurUS: 290},
					}},
				}},
			}},
		}},
	}}
	f := foldTree(root)
	if f.totalUS != 1000 || f.stageUS["plan"] != 40 || f.stageUS["execute"] != 900 || f.stageUS["encode"] != 0 {
		t.Errorf("stages = %v total %v", f.stageUS, f.totalUS)
	}
	want := map[string]float64{"limit": 0, "sort": 580, "filter": 10, "scan": 290}
	for kind, v := range want {
		if f.opSelfUS[kind] != v {
			t.Errorf("self time of %s = %v, want %v", kind, f.opSelfUS[kind], v)
		}
	}
	if _, ok := f.opSelfUS["fingerprint"]; ok {
		t.Error("spans outside execute are not operators")
	}
	if f.batches != 1 || f.spans != 8 {
		t.Errorf("batches %v spans %v", f.batches, f.spans)
	}
}

func TestRecorderGraft(t *testing.T) {
	rec := newRecorder()
	tree := &spanNode{Name: "query", DurUS: 100, Children: []*spanNode{{Name: "execute", StartUS: 10, DurUS: 80}}}
	rec.graft(7, 1000_000, 300_000, tree) // starts at 1000 us, lasts 300 us
	if len(rec.spans) != 3 {
		t.Fatalf("%d spans recorded", len(rec.spans))
	}
	client, query, exec := rec.spans[0], rec.spans[1], rec.spans[2]
	if client.Parent != -1 || query.Parent != client.ID || exec.Parent != query.ID {
		t.Errorf("parents: %d %d %d", client.Parent, query.Parent, exec.Parent)
	}
	if client.Request != 7 || exec.Request != 7 {
		t.Error("spans of one request must share its id")
	}
	// The 200 us of overhead split evenly: the server tree starts 100 us in.
	if query.StartUS != 1100 || exec.StartUS != 1110 || exec.EndUS != 1190 {
		t.Errorf("query starts %d, execute [%d,%d]", query.StartUS, exec.StartUS, exec.EndUS)
	}
}
