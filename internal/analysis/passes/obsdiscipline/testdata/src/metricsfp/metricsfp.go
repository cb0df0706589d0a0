// Package metricsfp locks in calibrated-clean registration shapes for the
// obsdiscipline analyzer, mirrored from the real tree (airserve's
// package-level instruments, the broadcast multichannel teardown, scheme-
// labeled comparisons). Any diagnostic in this file is a false positive
// and a regression.
package metricsfp

import (
	"strconv"

	"obs"
)

// Package-level registration, the preferred shape: one series, zero
// registrations on any hot path.
var (
	framesTotal = obs.GetCounter("air_frames_total", "frames decoded off the wire")
	lagSeconds  = obs.GetGauge("air_lag_seconds", "staleness of the freshest cycle")
	tuneSeconds = obs.GetHistogram("air_tune_seconds", "tuning latency")
)

const schemeLabel = "scheme"

// perScheme registers one labeled series per air-index scheme: the key is
// in the bounded vocabulary and the value set is closed.
func perScheme(schemes []string) []*obs.Counter {
	out := make([]*obs.Counter, 0, len(schemes))
	for _, s := range schemes {
		out = append(out, obs.GetCounter("air_scheme_wins_total", "comparison wins", schemeLabel, s))
	}
	return out
}

// multichannelClose mirrors the broadcast teardown: per-channel gauges
// keyed by the bounded "channel" label, indexed numerically.
func multichannelClose(channels int) {
	for i := 0; i < channels; i++ {
		obs.GetGauge("air_channel_backlog", "frames queued per channel",
			"channel", strconv.Itoa(i)).Add(0)
	}
}

// methodical uses identifiers containing identity words as substrings of
// longer words ("methodical", "hostile" would be wrong to flag is the
// point: whole-word matching only).
func methodical(methodicalMode string, hostileRetries float64) {
	framesTotal.Inc()
	lagSeconds.Add(hostileRetries)
	tuneSeconds.Observe(0.5)
	obs.GetCounter("air_mode_flips_total", "mode flips", "mode", methodicalMode).Inc()
}
