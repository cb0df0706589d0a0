package main

import (
	"repro"
)

// counters is a snapshot of the process-wide obs registry, summed over
// label sets: the same series a live airserve exports on /metrics.
type counters map[string]float64

func readCounters() counters {
	c := counters{}
	for _, p := range repro.Observe() {
		if p.Kind == "counter" {
			c[p.Name] += p.Value
		}
	}
	return c
}

// minus returns how far every counter advanced since base.
func (c counters) minus(base counters) counters {
	d := counters{}
	for name, v := range c {
		d[name] = v - base[name]
	}
	return d
}

// tally adds rounds up.
type tally struct {
	answered   int
	tuning     int64
	allocBytes uint64
	mallocs    uint64
}

func (t *tally) add(r *round) {
	t.answered += r.Answered
	t.tuning += r.sumTuning
	t.allocBytes += r.AllocBytes
	t.mallocs += r.Mallocs
}

// window is what the measured rounds of a run add up to: head over the
// first minRounds rounds (the end-to-end count metrics), all over every
// round (the denominators of the registry deltas).
type window struct {
	head, all tally
	delta     counters // registry advance over every round, prepare steps included
}

// counterMetrics derives the per-layer count metrics from the window.
func (w *window) counterMetrics(out metrics) {
	perQuery := func(v float64) float64 {
		if w.all.answered == 0 {
			return 0
		}
		return v / float64(w.all.answered)
	}
	d := w.delta
	stationPackets := d["air_station_packets_total"]
	out.set("station.packets_per_query", perQuery(stationPackets), "packets")
	ratio := 0.0
	if stationPackets > 0 {
		ratio = float64(w.all.tuning) / stationPackets
	}
	out.set("station.delivery_ratio", ratio, "ratio")
	out.set("station.dropped_packets", d["air_station_dropped_packets_total"], "count")
	out.set("station.swaps", d["air_station_swaps_total"], "count")
	out.set("multichannel.hops_per_query", perQuery(d["air_channel_hops_total"]), "hops")
	out.set("wire.datagrams_sent_per_query", perQuery(d["air_wire_datagrams_sent_total"]), "datagrams")
	out.set("wire.datagrams_received_per_query", perQuery(d["air_wire_datagrams_received_total"]), "datagrams")
	out.set("wire.gap_packets", d["air_wire_gap_packets_total"], "count")
	out.set("wire.corrupt_frames", d["air_wire_corrupt_frames_total"], "count")
	out.set("wire.redials", d["air_wire_redials_total"], "count")
	out.set("update.rebuilds", d["air_update_rebuilds_total"], "count")
	out.set("deploy.degraded", d["air_deploy_degraded_total"], "count")
	out.set("deploy.refused", d["air_deploy_refused_total"], "count")
	out.set("proc.mallocs_per_query", perQuery(float64(w.all.mallocs)), "allocs")
}

// cacheMetrics reports the build caches' traffic over the whole run: the
// set-up repetitions are where the caches work.
func cacheMetrics(out metrics, sinceStart counters) {
	out.set("servercache.hits", sinceStart["air_servercache_hits_total"], "count")
	out.set("servercache.misses", sinceStart["air_servercache_misses_total"], "count")
	out.set("diskcache.hits", sinceStart["air_diskcache_hits_total"], "count")
	out.set("diskcache.misses", sinceStart["air_diskcache_misses_total"], "count")
	out.set("diskcache.put_bytes", sinceStart["air_diskcache_put_bytes_total"], "bytes")
}
