package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro"
)

// span is one timed interval.
type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// querySpans are the spans of one traced query. The query span is the
// parent; attach, client and verify tile it by construction (each starts
// on the timestamp the previous one ended on); feed is a child of client
// whose busy time is the summed time inside Feed.At.
type querySpans struct {
	query, attach, client, verify span
	feed                          feedTimer
}

// clientSelf is the client span's self time: what the scheme client spent
// outside the feed — decode, collect, search.
func (q *querySpans) clientSelf() time.Duration { return q.client.dur() - q.feed.busy }

// tracedAsk answers through the layers' own entry points — the rig's attach
// (Subscribe / Dial / NewTuner), then client.Query on the tuner — with a
// span around each, and verifies inside the query span. The references
// must already be primed.
func tracedAsk(ctx context.Context, r *rig, clients []*tracedClient, v *verifier) func(int, pair, *sample) {
	g := r.dep.Graph()
	return func(c int, q pair, out *sample) {
		sp := &out.spans
		sp.query.start = time.Now()
		t, ft, release, err := r.attach(clients[c])
		sp.attach = span{sp.query.start, time.Now()}
		if err != nil {
			out.err = err
			sp.query.end = sp.attach.end
			out.latency = sp.query.dur()
			return
		}
		t.Bind(ctx)
		sp.client.start = sp.attach.end
		res, err := clients[c].query(r, t, repro.QueryFor(g, q.s, q.t))
		release()
		sp.client.end = time.Now()
		sp.feed = *ft
		out.latency = sp.client.end.Sub(sp.query.start)
		out.dist, out.path, out.m, out.err = res.Dist, res.Path, res.Metrics, err

		sp.verify.start = sp.client.end
		out.bad, out.checked = v.check(out), true
		sp.verify.end = time.Now()
		sp.query.end = sp.verify.end
	}
}

// spanRecord is one span as written to the trace file. Times are
// microseconds since the first span of the file.
type spanRecord struct {
	Query   int     `json:"query"` // shared by the spans of one query
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	// BusyUs and Calls are set on feed spans: the time inside Feed.At and
	// the number of calls, within [start, end].
	BusyUs float64 `json:"busy_us,omitempty"`
	Calls  int     `json:"calls,omitempty"`
}

// writeSpans writes the spans of a traced round to dir/trace_<workload>.json.
func writeSpans(dir, workload string, r *round) (string, error) {
	var origin time.Time
	for _, cs := range r.samples {
		if len(cs) > 0 && (origin.IsZero() || cs[0].spans.query.start.Before(origin)) {
			origin = cs[0].spans.query.start
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(origin)) / float64(time.Microsecond) }
	var recs []spanRecord
	id := 0
	for _, cs := range r.samples {
		for i := range cs {
			sp := &cs[i].spans
			add := func(name, parent string, s span) {
				recs = append(recs, spanRecord{Query: id, Name: name, Parent: parent, StartUs: us(s.start), EndUs: us(s.end)})
			}
			add("query", "", sp.query)
			add("attach", "query", sp.attach)
			if !sp.client.start.IsZero() {
				add("client", "query", sp.client)
				if sp.feed.calls > 0 {
					recs = append(recs, spanRecord{
						Query: id, Name: "feed", Parent: "client",
						StartUs: us(sp.feed.first), EndUs: us(sp.feed.last),
						BusyUs: float64(sp.feed.busy) / float64(time.Microsecond), Calls: sp.feed.calls,
					})
				}
				add("verify", "query", sp.verify)
			}
			id++
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	raw, err := json.Marshal(recs)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// spanStats are the per-layer span metrics of the traced rounds.
type spanStats struct {
	attachUs, feedWaitUs, feedCalls, clientSelfUs, searchCPUUs, verifyUs []float64
	feedShare                                                            []float64 // feed busy / query span
}

func (st *spanStats) add(r *round) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, cs := range r.samples {
		for i := range cs {
			s := &cs[i]
			if s.bad != nil || s.err != nil {
				continue
			}
			sp := &s.spans
			st.attachUs = append(st.attachUs, us(sp.attach.dur()))
			st.feedWaitUs = append(st.feedWaitUs, us(sp.feed.busy))
			st.feedCalls = append(st.feedCalls, float64(sp.feed.calls))
			st.clientSelfUs = append(st.clientSelfUs, us(sp.clientSelf()))
			st.searchCPUUs = append(st.searchCPUUs, us(s.m.CPU))
			st.verifyUs = append(st.verifyUs, us(sp.verify.dur()))
			if total := sp.query.dur(); total > 0 {
				st.feedShare = append(st.feedShare, float64(sp.feed.busy)/float64(total))
			}
		}
	}
}
