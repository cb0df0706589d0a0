package scheme

import (
	"testing"

	"repro/internal/graph"
)

func TestQueryFor(t *testing.T) {
	b := graph.NewBuilder(2, 2)
	b.AddNode(1.5, 2.5)
	b.AddNode(3.5, 4.5)
	b.AddEdge(0, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := QueryFor(g, 0, 1)
	if q.S != 0 || q.T != 1 {
		t.Fatalf("ids %d %d", q.S, q.T)
	}
	if q.SX != 1.5 || q.SY != 2.5 || q.TX != 3.5 || q.TY != 4.5 {
		t.Fatalf("coords %v %v %v %v", q.SX, q.SY, q.TX, q.TY)
	}
}
