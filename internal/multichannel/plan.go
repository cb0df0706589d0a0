package multichannel

import (
	"fmt"
	"sort"

	"repro/internal/broadcast"
	"repro/internal/packet"
)

// PlanOptions is Build's option set. It has no fields: regions always
// shard into contiguous runs and the directory replication is sized from
// the channel load. It is kept because callers pass its zero value.
type PlanOptions struct{}

// Plan is one logical cycle sharded across K channel cycles, plus the
// directory that lets a radio translate between the two. Channel packets
// are the logical packets verbatim (same next-index pointers, which remain
// logical), so scheme clients decode unchanged.
type Plan struct {
	Logical  *broadcast.Cycle
	Channels []*broadcast.Cycle
	Dir      *Directory
}

// K returns the channel count.
func (p *Plan) K() int { return len(p.Channels) }

// LogicalLen returns the logical cycle length in packets.
func (p *Plan) LogicalLen() int { return p.Logical.Len() }

// chanSeed derives channel c's loss seed from a subscriber seed; channel 0
// keeps the seed unchanged so K=1 reproduces the single-channel loss
// pattern bit for bit.
func chanSeed(seed int64, c int) uint64 {
	return uint64(seed) ^ uint64(c)*0x9E3779B97F4A7C15
}

// Build shards cycle c across k channels. Sections travel whole (a section
// is the unit of placement): sections tagged with a region — including NR's
// per-region local indexes — follow their region's channel, global index
// copies round-robin across channels, and unregioned sections go to the
// least-loaded channel. Each channel cycle carries its own directory
// copies; everything else is the logical packets verbatim.
func Build(c *broadcast.Cycle, k int, _ PlanOptions) (*Plan, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("multichannel: empty cycle")
	}
	if k < 1 || k > MaxChannels {
		return nil, fmt.Errorf("multichannel: channels %d outside [1, %d]", k, MaxChannels)
	}
	secs := append([]broadcast.Section(nil), c.Sections...)
	sort.Slice(secs, func(i, j int) bool { return secs[i].Start < secs[j].Start })
	pos := 0
	for _, s := range secs {
		if s.Start != pos {
			return nil, fmt.Errorf("multichannel: sections do not tile the cycle at packet %d", pos)
		}
		pos += s.N
	}
	if pos != c.Len() {
		return nil, fmt.Errorf("multichannel: sections cover %d of %d packets", pos, c.Len())
	}
	if k == 1 {
		d := identityDirectory(c.Len())
		d.Version = c.Version
		return &Plan{Logical: c, Channels: []*broadcast.Cycle{c}, Dir: d}, nil
	}

	// Classify sections and weigh regions.
	chanOf := make([]int, len(secs))
	var globalIdx []int // global index copies, in logical order
	var floating []int  // unregioned non-index sections, in logical order
	regionSecs := map[int][]int{}
	for i, s := range secs {
		switch {
		case s.Region >= 0:
			regionSecs[s.Region] = append(regionSecs[s.Region], i)
		case s.Kind == packet.KindIndex:
			globalIdx = append(globalIdx, i)
		default:
			floating = append(floating, i)
		}
	}
	regions := make([]int, 0, len(regionSecs))
	for r := range regionSecs {
		regions = append(regions, r)
	}
	sort.Ints(regions)
	weight := func(r int) int {
		w := 0
		for _, i := range regionSecs[r] {
			w += secs[i].N
		}
		return w
	}

	// Assign: regions to channels as K balanced runs in id order (kd-tree
	// leaf order, already spatially coherent; NR's next-region chase walks
	// regions cyclically by id, so contiguous runs minimize channel
	// crossings), then floaters to the least-loaded channel, then index
	// copies round-robin.
	load := make([]int, k)
	for ch, run := range splitBalanced(regions, weight, k) {
		for _, r := range run {
			for _, i := range regionSecs[r] {
				chanOf[i] = ch
				load[ch] += secs[i].N
			}
		}
	}
	for _, i := range floating {
		ch := 0
		for c2 := 1; c2 < k; c2++ {
			if load[c2] < load[ch] {
				ch = c2
			}
		}
		chanOf[i] = ch
		load[ch] += secs[i].N
	}
	for j, i := range globalIdx {
		chanOf[i] = j % k
		load[j%k] += secs[i].N
	}

	// Directory shape: entry count after merging adjacent placements is
	// only known once slots are laid out, and slots depend on the directory
	// packet count. Fixed-width fields make the size a function of the
	// entry count alone, so iterate: lay out with a guess, re-derive, and
	// repeat until stable (two rounds in practice).
	// More directory copies shorten a cold radio's bootstrap scan.
	maxLoad := 0
	for _, l := range load {
		maxLoad = max(maxLoad, l)
	}
	copies := min(1+maxLoad/1500, maxDirCopies)

	dirPackets := 1
	var d *Directory
	for round := 0; ; round++ {
		d = layout(c, secs, chanOf, k, copies, dirPackets)
		got := len(EncodeDirectory(d, 0))
		if got == dirPackets {
			break
		}
		if round > 8 {
			return nil, fmt.Errorf("multichannel: directory size did not converge")
		}
		dirPackets = got
	}

	// Materialize channel cycles: directory copies plus verbatim sections.
	channels := make([]*broadcast.Cycle, k)
	for ch := 0; ch < k; ch++ {
		cyc := &broadcast.Cycle{Version: c.Version}
		dirPkts := EncodeDirectory(d, ch)
		nextDir := 0
		appendDir := func() {
			cyc.Sections = append(cyc.Sections, broadcast.Section{
				Kind: packet.KindDir, Region: -1, Label: "directory",
				Start: len(cyc.Packets), N: len(dirPkts),
			})
			cyc.Packets = append(cyc.Packets, dirPkts...)
			nextDir++
		}
		for _, i := range channelOrder(secs, chanOf, ch) {
			for nextDir < len(d.DirSlots[ch]) && d.DirSlots[ch][nextDir] == len(cyc.Packets) {
				appendDir()
			}
			s := secs[i]
			cyc.Sections = append(cyc.Sections, broadcast.Section{
				Kind: s.Kind, Region: s.Region, Label: s.Label,
				Start: len(cyc.Packets), N: s.N,
			})
			cyc.Packets = append(cyc.Packets, c.Packets[s.Start:s.Start+s.N]...)
		}
		for nextDir < len(d.DirSlots[ch]) {
			appendDir()
		}
		if len(cyc.Packets) != d.ChanLens[ch] {
			return nil, fmt.Errorf("multichannel: channel %d length %d != planned %d", ch, len(cyc.Packets), d.ChanLens[ch])
		}
		channels[ch] = cyc
	}
	return &Plan{Logical: c, Channels: channels, Dir: d}, nil
}

// channelOrder returns the indexes of ch's sections in logical order.
func channelOrder(secs []broadcast.Section, chanOf []int, ch int) []int {
	var out []int
	for i := range secs {
		if chanOf[i] == ch {
			out = append(out, i)
		}
	}
	return out
}

// layout computes every section's slot given a directory size, interleaving
// `copies` directory copies per channel at even content intervals (the
// first at slot 0, like the (1,m) index rule), and returns the resulting
// Directory with adjacent same-channel placements merged.
func layout(c *broadcast.Cycle, secs []broadcast.Section, chanOf []int, k, copies, dirPackets int) *Directory {
	d := &Directory{
		K:          k,
		LogicalLen: c.Len(),
		ChanLens:   make([]int, k),
		DirSlots:   make([][]int, k),
		DirPackets: dirPackets,
		Version:    c.Version,
	}
	slotOf := make([]int, len(secs))
	for ch := 0; ch < k; ch++ {
		order := channelOrder(secs, chanOf, ch)
		content := 0
		for _, i := range order {
			content += secs[i].N
		}
		slot, emitted, placed := 0, 0, 0
		for _, i := range order {
			if placed < copies && emitted*copies >= placed*content {
				d.DirSlots[ch] = append(d.DirSlots[ch], slot)
				slot += dirPackets
				placed++
			}
			slotOf[i] = slot
			slot += secs[i].N
			emitted += secs[i].N
		}
		for placed < copies {
			d.DirSlots[ch] = append(d.DirSlots[ch], slot)
			slot += dirPackets
			placed++
		}
		d.ChanLens[ch] = slot
	}
	// Entries in logical order, merging runs that stayed adjacent on air.
	for i, s := range secs {
		e := Entry{LogicalStart: s.Start, N: s.N, Channel: chanOf[i], Slot: slotOf[i]}
		if n := len(d.Entries); n > 0 {
			p := &d.Entries[n-1]
			if p.Channel == e.Channel && p.LogicalStart+p.N == e.LogicalStart && p.Slot+p.N == e.Slot {
				p.N += e.N
				continue
			}
		}
		d.Entries = append(d.Entries, e)
	}
	return d
}

// splitBalanced cuts ids (already ordered) into k contiguous runs with
// near-equal total weight; trailing runs may be empty when there are fewer
// ids than channels.
func splitBalanced(ids []int, weight func(int) int, k int) [][]int {
	runs := make([][]int, k)
	total := 0
	for _, id := range ids {
		total += weight(id)
	}
	i := 0
	for ch := 0; ch < k; ch++ {
		left := k - ch
		if len(ids)-i <= left {
			// One id per remaining channel.
			if i < len(ids) {
				runs[ch] = ids[i : i+1]
				total -= weight(ids[i])
				i++
			}
			continue
		}
		target := float64(total) / float64(left)
		acc := 0
		start := i
		for i < len(ids) && len(ids)-i > left-1 {
			w := weight(ids[i])
			if acc > 0 && float64(acc)+float64(w)/2 > target {
				break
			}
			acc += w
			i++
		}
		runs[ch] = ids[start:i]
		total -= acc
	}
	return runs
}
