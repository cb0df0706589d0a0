package harness

import "testing"

// TestIncrementalRuns executes the incremental-rebuild sizing at CI size.
// The counts themselves are the experiment's finding (EXPERIMENTS.md); here
// they only have to be coherent: a source whose paths avoid every
// re-weighed arc is a precondition for one whose outputs all survive.
func TestIncrementalRuns(t *testing.T) {
	rows, err := Incremental(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Sources == 0 || r.Untouched > r.Sources || r.Unchanged > r.Untouched {
			t.Errorf("seed %d: incoherent counts %+v", r.Seed, r)
		}
	}
}
