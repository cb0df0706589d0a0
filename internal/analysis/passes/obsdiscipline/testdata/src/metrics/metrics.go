// Package metrics exercises the obsdiscipline analyzer's naming, label,
// and registration-shape rules.
package metrics

import (
	"strconv"

	"obs"
)

// Each violating call is split across lines so exactly one diagnostic
// lands per want line.

func badNames(suffix string) {
	_ = obs.GetCounter(
		"air_frames", // want `counter "air_frames" must end in _total`
		"frames seen")
	_ = obs.GetCounter(
		"Air_Frames_total", // want `must be snake_case with the air_ prefix`
		"frames seen")
	_ = obs.GetCounter(
		"air_frames_"+suffix, // want `metric name must be a constant string`
		"frames seen")
	_ = obs.GetGauge(
		"air_drops_total", // want `the _total suffix is reserved for counters`
		"drops in flight")
}

func badHelp(help string) {
	_ = obs.GetCounter("air_ticks_total",
		"") // want `metric help must not be empty`
	_ = obs.GetCounter("air_tocks_total",
		help) // want `metric help must be a constant string`
}

func badLabels(nodeName, method string, pairs []string) {
	_ = obs.GetCounter("air_sends_total", "sends", // want `odd label argument count`
		"channel")
	_ = obs.GetCounter("air_recvs_total", "recvs",
		method, // want `label key must be a constant string`
		"get")
	_ = obs.GetCounter("air_acks_total", "acks",
		"Channel", // want `label key "Channel" must be snake_case`
		"news")
	_ = obs.GetCounter("air_peers_total", "peers", "peer",
		nodeName) // want `label value derives from "nodeName"`
	_ = obs.GetCounter("air_bulk_total", "bulk",
		pairs...) // want `label set must be spelled literally at the registration site`
}

func loops(peers []string) {
	for _, p := range peers {
		c := obs.GetCounter("air_peer_sends_total", "sends", "peer", p) // want `registration inside a loop with label key "peer" outside the bounded vocabulary`
		c.Inc()
	}
	for range peers {
		obs.GetCounter("air_loop_ticks_total", "ticks").Inc() // want `unlabeled registration inside a loop re-registers the same series per iteration`
	}
	// Bounded vocabulary: a loop over channels is a deployment-bounded set.
	for i := 0; i < 4; i++ {
		obs.GetCounter("air_channel_frames_total", "frames", "channel", strconv.Itoa(i)).Inc()
	}
}

func histograms(clientAddr string) {
	_ = obs.GetHistogram("air_tune_seconds", "tuning latency", "scheme", "hiti")
	_ = obs.GetHistogram("air_dial_seconds", "dial latency", "peer",
		clientAddr) // want `label value derives from "clientAddr"`
	_ = obs.GetGauge(
		"air_lag_seconds_total", // want `the _total suffix is reserved for counters`
		"lag")
	_ = obs.GetHistogram(
		"air_wait_seconds_total", // want `the _total suffix is reserved for counters`
		"wait")
}
