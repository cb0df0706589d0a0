package metrics

import (
	"math"
	"testing"
	"time"
)

func TestPacketSeconds(t *testing.T) {
	// 14019 packets at 2 Mbps: the paper's Table 1 reports 6.845 s for DJ.
	got := PacketSeconds(14019, RateFast)
	if math.Abs(got-7.178) > 0.01 {
		t.Errorf("PacketSeconds = %v", got)
	}
	// Ratio between the two rates is exact.
	if r := PacketSeconds(100, RateSlow) / PacketSeconds(100, RateFast); math.Abs(r-float64(RateFast)/float64(RateSlow)) > 1e-9 {
		t.Errorf("rate ratio %v", r)
	}
}

func TestMemTracker(t *testing.T) {
	var m Mem
	m.Alloc(100)
	m.Alloc(50)
	m.Free(120)
	m.Alloc(10)
	if m.cur != 40 {
		t.Errorf("cur %d", m.cur)
	}
	if m.Peak() != 150 {
		t.Errorf("peak %d", m.Peak())
	}
}

func TestMemOverFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var m Mem
	m.Alloc(10)
	m.Free(11)
}

func TestEnergyModel(t *testing.T) {
	q := Query{TuningPackets: 100, LatencyPackets: 1000, CPU: 10 * time.Millisecond}
	e := q.EnergyJoules(RateFast)
	// Components: receive 100 pkts, sleep 900 pkts, cpu 10ms.
	recv := PacketSeconds(100, RateFast) * PowerReceiveW
	sleep := PacketSeconds(900, RateFast) * PowerSleepW
	cpu := 0.010 * PowerCPUW
	if math.Abs(e-(recv+sleep+cpu)) > 1e-9 {
		t.Errorf("energy %v, want %v", e, recv+sleep+cpu)
	}
	// Receiving dominates sleeping per packet.
	allRecv := Query{TuningPackets: 1000, LatencyPackets: 1000}
	if allRecv.EnergyJoules(RateFast) <= q.EnergyJoules(RateFast) {
		t.Error("full-tuning query should cost more energy")
	}
}

func TestAggMeans(t *testing.T) {
	var a Agg
	a.Add(Query{TuningPackets: 10, LatencyPackets: 20, PeakMemBytes: 1000, CPU: time.Millisecond})
	a.Add(Query{TuningPackets: 30, LatencyPackets: 40, PeakMemBytes: 3000, CPU: 3 * time.Millisecond})
	if a.MeanTuning() != 20 || a.MeanLatency() != 30 || a.MeanPeakMem() != 2000 {
		t.Errorf("means wrong: %v %v %v", a.MeanTuning(), a.MeanLatency(), a.MeanPeakMem())
	}
	if a.MeanCPU() != 2*time.Millisecond {
		t.Errorf("mean cpu %v", a.MeanCPU())
	}
	if a.MaxPeakMem != 3000 {
		t.Errorf("max peak %d", a.MaxPeakMem)
	}
	var empty Agg
	if empty.MeanCPU() != 0 || empty.MeanTuning() != 0 {
		t.Error("empty agg should report zeros")
	}
}

func TestAggMerge(t *testing.T) {
	var a, b, all Agg
	queries := []Query{
		{TuningPackets: 10, LatencyPackets: 20, PeakMemBytes: 1000, CPU: time.Millisecond},
		{TuningPackets: 30, LatencyPackets: 40, PeakMemBytes: 5000, CPU: 3 * time.Millisecond},
		{TuningPackets: 20, LatencyPackets: 60, PeakMemBytes: 2000, CPU: 2 * time.Millisecond},
	}
	for i, q := range queries {
		all.Add(q)
		if i%2 == 0 {
			a.Add(q)
		} else {
			b.Add(q)
		}
	}
	a.Merge(b)
	if a != all {
		t.Errorf("merged %+v, want %+v", a, all)
	}
	var empty Agg
	a.Merge(empty)
	if a != all {
		t.Errorf("merging empty changed aggregate: %+v", a)
	}
	empty.Merge(all)
	if empty != all {
		t.Errorf("merge into empty: %+v, want %+v", empty, all)
	}
}

func TestSeriesPercentiles(t *testing.T) {
	var s Series
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Error("empty series should report zeros")
	}
	// 1..100 inserted out of order: p50 interpolates to 50.5.
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("p50 = %v, want 50.5", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	q := s.Quantiles()
	if math.Abs(q.P95-95.05) > 1e-9 || math.Abs(q.P99-99.01) > 1e-9 {
		t.Errorf("quantiles %+v", q)
	}
	if math.Abs(s.Mean()-50.5) > 1e-9 {
		t.Errorf("mean %v", s.Mean())
	}
	// Adding after a percentile query re-sorts correctly.
	s.Add(1000)
	if got := s.Percentile(100); got != 1000 {
		t.Errorf("p100 after add = %v", got)
	}
}

func TestSeriesMerge(t *testing.T) {
	var a, b Series
	for i := 1; i <= 50; i++ {
		a.Add(float64(i))
	}
	for i := 51; i <= 100; i++ {
		b.Add(float64(i))
	}
	a.Merge(&b)
	if a.N() != 100 {
		t.Fatalf("merged n = %d", a.N())
	}
	if got := a.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("merged p50 = %v", got)
	}
	a.Merge(nil)
	if a.N() != 100 {
		t.Errorf("nil merge changed n: %d", a.N())
	}
}

// TestSeriesEmpty pins the zero-sample contract every fleet summary relies
// on when a run completes no queries: means, percentiles and quantiles are
// all zero — never NaN, never a panic.
func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.N() != 0 {
		t.Fatalf("empty series N=%d", s.N())
	}
	if m := s.Mean(); m != 0 {
		t.Errorf("empty mean %v", m)
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if v := s.Percentile(p); v != 0 {
			t.Errorf("empty p%v = %v", p, v)
		}
	}
	if q := s.Quantiles(); q != (Quantiles{}) {
		t.Errorf("empty quantiles %+v", q)
	}
	// Merging an empty series into an empty series stays empty.
	var o Series
	s.Merge(&o)
	s.Merge(nil)
	if s.N() != 0 {
		t.Errorf("merged-empty N=%d", s.N())
	}
}

// TestAggEmptyMeans pins the zero-query aggregate: every mean is zero (the
// max(N,1) guards), not a division by zero.
func TestAggEmptyMeans(t *testing.T) {
	var a Agg
	if a.MeanTuning() != 0 || a.MeanLatency() != 0 || a.MeanPeakMem() != 0 || a.MeanCPU() != 0 {
		t.Errorf("empty agg means: %v %v %v %v", a.MeanTuning(), a.MeanLatency(), a.MeanPeakMem(), a.MeanCPU())
	}
}
