package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/build"
	"repro/internal/multichannel"
	"repro/internal/netgen"
	"repro/internal/workload"
)

// methodRow is one (network, method, K) cell of the cross-version fence:
// the on-air bytes (cycle length and the SHA-256 of every channel's AIRC
// encoding, in channel order) and, over the 30-query seed-2010 workload at
// 5% loss, the summed paper currency and answers.
type methodRow struct {
	Network string
	Method  string
	K       int
	Len     int
	SHA256  string
	Tuning  int
	Latency int
	PeakMem int
	Dist    float64
}

// methodGolden is every method on the five harness networks at scale 0.05
// (SPQ and HiTi on milan only), EB and NR at K=4 as well. Every path that compares two builds of one tree
// (live vs offline, K=1 vs single channel) moves with a change that moves
// both; these rows cross commits. A change that moves one says which and
// why. To re-record after an intended change, paste the rows the failing
// test prints.
var methodGolden = []methodRow{
	{"milan", "EB", 1, 390, "1a49636b35a73a352b47abca0ceba3261662c53a99189d5a2cba2c29de994176", 7402, 29167, 1121132, 319996.9295501709},
	{"milan", "EB", 4, 390, "8e25466df14c557bcaa42e6d602e15791c316b09cafd504a15280e772d1d64f7", 7473, 20238, 1121132, 319996.9295501709},
	{"milan", "NR", 1, 362, "bc01bc57e7fd42af9995680eddd505a6c132bc26688a3fd61e02e98b92a26d32", 6372, 21985, 866572, 319996.9295501709},
	{"milan", "NR", 4, 362, "e8014c76da8638afccaa507044f34d13b72aa407cd1b024630a59adb0d859757", 6350, 16142, 863628, 319996.9295501709},
	{"milan", "DJ", 1, 324, "a4dc9564ad516e3d9372264a2f8c6286cc1a9b0297dd688eb899a7aedf60f967", 10253, 25533, 1639200, 319996.9295501709},
	{"milan", "AF", 1, 594, "07f9d50c8162197d2b548ecd53c8decb1334d8cd516c4723f4a13b856cb9b1a5", 18773, 45328, 2041800, 319996.9295501709},
	{"milan", "LD", 1, 465, "a86027711f9cf49fb437f8de17224e31c9a63dd2f698c16570678ac19ce5693e", 14735, 28391, 1975680, 319996.9295501709},
	{"milan", "SPQ", 1, 1418, "0e3c4dc8b3b0ce5ccb9e5e2e168f11f0b657f050c03be095159fc97a0c969eaf", 44830, 119552, 4062750, 319996.9295501709},
	{"milan", "HiTi", 1, 1806, "717605603d41370e0d02838f5e80ecde76e724464213654de5153408865e9e5a", 46905, 212110, 5128768, 319996.9272155762},
	{"germany", "EB", 1, 568, "ae745b88a1b8977eff237acb6e8f9c873ccc06cfd90b5719a9f8c98c8a07eae0", 11653, 49139, 1787268, 236150.89867305756},
	{"germany", "EB", 4, 568, "e1b2674ad3af0cd075235f7e38db4f0d961ef8fb0bd7d4057d8fbbb29d9c32f5", 11454, 27927, 1787268, 236150.89867305756},
	{"germany", "NR", 1, 530, "b6b9883dfac276653dddb99bb4cd0162a309009d10198ae3cdb85e24d1521873", 10447, 42606, 1489200, 236150.89867305756},
	{"germany", "NR", 4, 530, "e3d77e7273bce50995fe26c347996d9206101c556984dd368360d4c4cca6b68f", 10463, 22835, 1504800, 236150.89867305756},
	{"germany", "DJ", 1, 492, "3748b234f5e23051ed168455cfd68e3d45020d421bee13e2ffaa31c20e4cbfb1", 15625, 38810, 2480400, 236150.89867305756},
	{"germany", "AF", 1, 798, "cd283a6847e1648c0f470d41f2262327ba01012ee1a7143414f008d5a818dc50", 25193, 65008, 2936700, 236150.89867305756},
	{"germany", "LD", 1, 781, "18a75afc4626a84a874e17e49964f83988969ad5199682d1465acda5edec12ae", 24705, 74363, 3173040, 236150.89867305756},
	{"argentina", "EB", 1, 1659, "fbf03f70a0499c97f40e418daaa34f121ea2f606298624e93fd8ff2ae2792675", 32540, 143368, 5044488, 285786.78237628937},
	{"argentina", "EB", 4, 1659, "3d10bae4ef1f849f59cb9551486a5d7e128457f6424bc650b0aa987825811a82", 32324, 88143, 5044488, 285786.78237628937},
	{"argentina", "NR", 1, 1561, "58c78ad49e7b9e82ffa8ff18d93bf710b94b6dabb53650f0a35d71e8abf868a7", 22787, 133226, 3279672, 285786.78237628937},
	{"argentina", "NR", 4, 1561, "a4a23add5ff4eaebfe5acd006a936b928021dfcb5e15f8738447a40fa8699ccf", 22497, 65149, 3253420, 285786.78237628937},
	{"argentina", "DJ", 1, 1441, "e90faec9c367730a96b083c557fe8e9c25c93c1b9e301f411c91b137893230fe", 45531, 128857, 7273680, 285786.78237628937},
	{"argentina", "AF", 1, 2326, "4ddc6dc1e41bdde14ff6e92702598ec604dc240f0878322e62f55cf972566223", 73516, 215279, 8598780, 285786.78237628937},
	{"argentina", "LD", 1, 2294, "38376c40c392fdc635f7e2753e078b7be607a570cb64b203b46b3facf5c98d74", 72558, 194603, 9320400, 285786.78237628937},
	{"india", "EB", 1, 2856, "a547dbbeed82ca691824d282428dd7d8a4d6401048c1611e0316eede7f66de5a", 51618, 305660, 8108948, 400544.1464858055},
	{"india", "EB", 4, 2856, "ca0a4254dfece9465addbe790bf24058ac71b3165dbf97c2e1df8efa344ab396", 51424, 151400, 8108948, 400544.1464858055},
	{"india", "NR", 1, 2653, "b0fcb92ae3dd36aa8b953516f6d4b33f79f883aa486c0824007f506b57a2fa2c", 37732, 228338, 5660800, 400544.1464858055},
	{"india", "NR", 4, 2653, "f4abe6095df223d0e9c95ebfeed19a2618a01c8bd23e305092ffbd6ffc7aa735", 37736, 114582, 5670388, 400544.1464858055},
	{"india", "DJ", 1, 2530, "1fcfdb920b8de74e153f41e0234052a442e756092c051cf0af05cb864b1d5f10", 80043, 257469, 12775440, 400544.1464858055},
	{"india", "AF", 1, 4086, "182c0a56653374397d17763699a2b2c591d542c48855b1114f2ada04f76e3134", 128751, 354492, 15107340, 400544.1464858055},
	{"india", "LD", 1, 4026, "6b8a365bf6fb3950eb9153201fd1883a8edaa9e572d6663740c85350b3c57e56", 126920, 344286, 16364880, 400544.1464858055},
	{"sanfrancisco", "EB", 1, 3592, "a52a0bb3523b79a72c9af4167149c123a1628842cad1555c87708d0054e7148f", 56014, 316351, 8783932, 1.075678309955597e+06},
	{"sanfrancisco", "EB", 4, 3592, "3f8e0ef95f560323dd3a23557f5630fe342b9943573555eb3801016f96ce82a6", 56028, 201971, 8783932, 1.075678309955597e+06},
	{"sanfrancisco", "NR", 1, 3354, "fb398ad1ea642ab36b0bd27b4d1a7a2bab88f0e3727a3967cf6d94a68e0651a7", 40408, 281671, 6119252, 1.075678309955597e+06},
	{"sanfrancisco", "NR", 4, 3354, "af4519fe4f0bcb36f3cc2a2aad8b1937c6268f6df06f4680e972c7f23d504c3d", 40687, 141350, 6174112, 1.075678309955597e+06},
	{"sanfrancisco", "DJ", 1, 3228, "2c017a0e8596f919d0815ad62d387feb4ab250eb89eb4e4834adede7e7771ce6", 101937, 340264, 16424400, 1.075678309955597e+06},
	{"sanfrancisco", "AF", 1, 5459, "f4f2ae77912a1923d3d8130a9babbd1c7106d69be01b6a01b0828a912a41933c", 172021, 569179, 19769100, 1.075678309955597e+06},
	{"sanfrancisco", "LD", 1, 4978, "bde8243ea3de39ff1c1bf959dec12b87d3a6003a62c970e5a54228a8aac859ac", 156987, 436296, 20622960, 1.075678309955597e+06},
}

// goldenMethods are the seven methods. SPQ and HiTi build only on the
// smallest network: on all five they alone take the table from ≈ 4 s to
// ≈ 30 s.
var goldenMethods = []build.Method{build.EB, build.NR, build.DJ, build.AF, build.LD, build.SPQ, build.HiTi}

func methodRows(t *testing.T) []methodRow {
	cfg := Config{Scale: 0.05, Queries: 30, Seed: 2010}
	const loss = 0.05
	var rows []methodRow
	for _, p := range netgen.Presets {
		g, _, err := cfg.network(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goldenMethods {
			if (m == build.SPQ || m == build.HiTi) && p.Name != netgen.Presets[0].Name {
				continue
			}
			srv, err := cfg.server(g, p.Name, m, cfg.params(g, m), nil)
			if err != nil {
				t.Fatal(err)
			}
			w := workload.Generate(g, cfg.Queries, srv.Cycle().Len(), cfg.Seed)
			ks := []int{1}
			if m == build.EB || m == build.NR {
				ks = append(ks, 4)
			}
			for _, k := range ks {
				plan, err := multichannel.Build(srv.Cycle(), k, multichannel.PlanOptions{})
				if err != nil {
					t.Fatal(err)
				}
				air, err := multichannel.NewAir(plan, loss, 7)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for _, c := range plan.Channels {
					if err := broadcast.EncodeCycle(h, c); err != nil {
						t.Fatal(err)
					}
				}
				row := methodRow{Network: p.Name, Method: string(m), K: k, Len: plan.LogicalLen(), SHA256: hex.EncodeToString(h.Sum(nil))}
				client := srv.NewClient()
				rng := rand.New(rand.NewSource(5))
				for qi, q := range w.Queries {
					tuner, _, err := air.Tuner(q.TuneIn, multichannel.RxOptions{Channel: rng.Intn(k)})
					if err != nil {
						t.Fatal(err)
					}
					res, err := client.Query(tuner, q.Query)
					if err != nil {
						t.Fatalf("%s %s K=%d query %d: %v", p.Name, m, k, qi, err)
					}
					row.Tuning += res.Metrics.TuningPackets
					row.Latency += res.Metrics.LatencyPackets
					row.PeakMem += res.Metrics.PeakMemBytes
					row.Dist += res.Dist
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// TestMethodGolden pins the on-air bytes and paper currency of every
// method exactly (methodGolden).
func TestMethodGolden(t *testing.T) {
	rows := methodRows(t)
	if slices.Equal(rows, methodGolden) {
		return
	}
	var fresh strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&fresh, "\t{%q, %q, %d, %d, %q, %d, %d, %d, %v},\n",
			r.Network, r.Method, r.K, r.Len, r.SHA256, r.Tuning, r.Latency, r.PeakMem, r.Dist)
	}
	t.Fatalf("method rows differ from methodGolden; fresh rows:\n%s", fresh.String())
}
