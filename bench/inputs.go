package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro"
)

// The network every workload runs on: the paper's default (germany, 28 867
// nodes). It is fixed; only the inputs below depend on -seed.
const (
	netPreset  = "germany"
	netSeed    = 2010
	benchScale = 1.0 // options.scale outside the tests
)

// pair is one shortest-path query.
type pair struct{ s, t repro.NodeID }

// arcScale re-weights the arc at a global arc index by a factor: one entry
// of a traffic-update batch, resolved against the network version it is
// applied to.
type arcScale struct {
	arc    int
	factor float64
}

// inputs is everything a run derives from -seed. The program under test
// receives only these values, never the seed.
type inputs struct {
	// blocks are the query pool, one block per round; no pair repeats
	// across the pool.
	blocks   [][]pair
	tuneIn   []int   // per-client offline tune-in position
	sessSeed []int64 // per-client seed of the private loss patterns
	lossSeed int64   // deployment loss-pattern seed
	rng      *rand.Rand
	arcs     int
}

const maxClients = 2

// distanceBands stratifies every block of the pool by the straight-line
// distance between a query's endpoints. The work a query costs grows with
// that distance (more regions to receive, a larger search), and a plain
// uniform draw of a few hundred pairs moves the mean cost by several
// percent from seed to seed — more than most regressions worth catching.
// Equal quotas over equal-width bands keep the mix of short and long
// queries the same for every seed while the pairs themselves differ.
const distanceBands = 8

// makeInputs draws nBlocks blocks of blockSize distinct-endpoint query
// pairs, plus the per-client tune-in positions and loss seeds.
func makeInputs(seed int64, g *repro.Graph, nBlocks, blockSize int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{rng: rng, arcs: g.NumArcs(), lossSeed: 1 + rng.Int63n(1<<40)}
	for c := 0; c < maxClients; c++ {
		in.tuneIn = append(in.tuneIn, rng.Intn(1<<16))
		in.sessSeed = append(in.sessSeed, 1+rng.Int63n(1<<40))
	}

	// Bands span [0, 0.6 × the bounding-box diagonal); the last one also
	// takes everything longer, which uniform node pairs rarely are.
	minX, minY, maxX, maxY := g.Bounds()
	width := 0.6 * math.Hypot(maxX-minX, maxY-minY) / distanceBands
	band := func(q pair) int {
		a, b := g.Node(q.s), g.Node(q.t)
		return min(int(math.Hypot(a.X-b.X, a.Y-b.Y)/width), distanceBands-1)
	}
	used := map[pair]bool{}
	for len(in.blocks) < nBlocks {
		var block []pair
		var filled [distanceBands]int
		// A band too rare to fill on this network gives up after a bounded
		// number of draws and the block tops up with whatever comes.
		for draws := 0; len(block) < blockSize; draws++ {
			q := pair{repro.NodeID(rng.Intn(g.NumNodes())), repro.NodeID(rng.Intn(g.NumNodes()))}
			if q.s == q.t || used[q] {
				continue
			}
			b := band(q)
			quota := blockSize / distanceBands
			if b < blockSize%distanceBands {
				quota++
			}
			if filled[b] >= quota && draws < 400*blockSize {
				continue
			}
			filled[b]++
			used[q] = true
			block = append(block, q)
		}
		in.blocks = append(in.blocks, block)
	}
	return in
}

// batch draws the next traffic-update batch: n uniform random arcs, each
// scaled by a factor in [0.5, 2) — the mixed profile of the repo's churn
// feed, which keeps weights inside the float32 wire precision budget.
func (in *inputs) batch(n int) []arcScale {
	out := make([]arcScale, n)
	for i := range out {
		out[i] = arcScale{arc: in.rng.Intn(in.arcs), factor: 0.5 + 1.5*in.rng.Float64()}
	}
	return out
}

// resolve turns a batch into weight updates against network version g.
func resolve(g *repro.Graph, batch []arcScale) []repro.WeightUpdate {
	ups := make([]repro.WeightUpdate, len(batch))
	for i, b := range batch {
		from, to, w := g.ArcAt(b.arc)
		ups[i] = repro.WeightUpdate{From: from, To: to, Weight: w * b.factor}
	}
	return ups
}

// loadNetwork generates the fixed network.
func loadNetwork(scale float64) (*repro.Graph, error) {
	g, err := repro.GeneratePreset(netPreset, scale, netSeed)
	if err != nil {
		return nil, fmt.Errorf("generate %s@%v: %w", netPreset, scale, err)
	}
	return g, nil
}
