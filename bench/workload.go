package main

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"rfly/internal/fleet"
)

// workload is one traffic mix the benchmark drives. The names are the
// benchmark's contract (BENCHMARK.json); README.md says why each exists.
type workload struct {
	name string
	// node shapes every fleet node of the system under test, and the
	// missions the runtime flies for it.
	node fleet.Config
	// nodes is how many fleet nodes serve: two put a federation
	// coordinator in front, zero means the workload calls the runtime
	// directly.
	nodes int
	// rate is the open-loop arrival rate in requests/s; zero means the
	// workload is closed-loop only.
	rate float64
	// burst is the largest same-region burst of arrivals.
	burst int
	// closedShare is the share of the measured seconds the closed-loop
	// phase takes; the open-loop phase takes the rest.
	closedShare float64
	// slo is the latency limit an op must meet to count as served.
	slo time.Duration
	// sar asks for a localized tag (sar_points, exclusive) instead of an
	// inventory-only, batchable request.
	sar bool
}

// The rates and shard counts are set so that a slower host moves the
// latencies little. When every CPU runs a sortie, the HTTP goroutines
// wait for the Go scheduler to preempt one, and a host that runs slower
// makes that more frequent. With a one-core CPU hog beside it on a
// 2-vCPU VM, locate at 10/s had its p90 rise by 50–70%, at 6/s by
// 8–30%. Inventory on two shards had its p50 double, on one shard it
// rose by 15%. On one shard, the first request of a burst flies at once
// and the rest wait for it and share the next sortie, so with bursts of
// up to 8 both the p50 and the p90 lie inside that second mode.
//
// The open-loop phases of locate and federate take 4/5 of the measured
// seconds, 120 requests whose p90 rests on 12 samples beyond. Inventory
// needs less time for a steady p90, so it gives half to its closed loop,
// whose rate swings most with the host's load.
var workloads = []workload{
	{name: "locate", node: fleet.Config{Shards: 2, Sorties: 4, TicksPerSortie: 12},
		nodes: 1, rate: 6, burst: 1, closedShare: 0.2, slo: 250 * time.Millisecond, sar: true},
	{name: "inventory", node: fleet.Config{Shards: 1, Sorties: 1, TicksPerSortie: 12},
		nodes: 1, rate: 40, burst: 8, closedShare: 0.5, slo: 50 * time.Millisecond},
	{name: "federate", node: fleet.Config{Shards: 2, Sorties: 4, TicksPerSortie: 12},
		nodes: 2, rate: 6, burst: 1, closedShare: 0.2, slo: 400 * time.Millisecond, sar: true},
	{name: "resume", node: fleet.Config{Shards: 2, Sorties: 4, TicksPerSortie: 12},
		closedShare: 1, slo: 150 * time.Millisecond, sar: true},
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// regionNames is fleet.Regions' keys in a fixed order, so the same seed
// draws the same regions.
var regionNames = func() []string {
	var out []string
	for name := range fleet.Regions {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}()

// sarPoints is the aperture each localizing request asks for per sortie.
const sarPoints = 8

// gen draws one stream of a workload's requests. Streams are keyed by a
// label (the phase they feed), so changing one phase's length never
// shifts another phase's inputs.
type gen struct {
	w      *workload
	r      *rand.Rand
	n      int // requests drawn
	bursts int // bursts drawn; regions go round-robin by burst
}

func newGen(w *workload, seed uint64, label string) *gen {
	h := fnv.New64a()
	h.Write([]byte(w.name + "/" + label))
	return &gen{w: w, r: rand.New(rand.NewPCG(seed, h.Sum64()))}
}

// next draws one request for the next region in round-robin order.
func (g *gen) next() fleet.SubmitRequest {
	region := regionNames[g.bursts%len(regionNames)]
	g.bursts++
	return g.request(region)
}

// request draws one request for region. Every request carries an
// explicit seed, so what it flies does not depend on arrival order.
func (g *gen) request(region string) fleet.SubmitRequest {
	req := fleet.SubmitRequest{Region: region, Seed: g.r.Uint64() | 1}
	tags := 2
	if g.w.sar {
		tags = 1
		req.SARPoints = sarPoints
		req.Exclusive = true
	}
	for range tags {
		g.n++
		req.Tags = append(req.Tags, g.tag(fleet.Regions[region], uint16(g.n)))
	}
	return req
}

// tag places one tag inside the region's corridor and within 4 m of its
// relay station along it: the mission's SAR solve window spans the
// station ±5 m, so a tag further out could not be localized at all.
func (g *gen) tag(reg fleet.Region, id uint16) fleet.TagInput {
	x0, x1, y0, y1 := tagBox(reg)
	return fleet.TagInput{
		ID: id,
		X:  x0 + g.r.Float64()*(x1-x0),
		Y:  y0 + g.r.Float64()*(y1-y0),
		Z:  0.5 + g.r.Float64(),
	}
}

// tagBox is the rectangle tags of reg are drawn from.
func tagBox(reg fleet.Region) (x0, x1, y0, y1 float64) {
	x0 = math.Max(0.5, reg.RelayPos.X-4)
	x1 = math.Min(reg.CorridorLengthM-0.5, reg.RelayPos.X+4)
	return x0, x1, 0.3, reg.CorridorWidthM - 0.3
}

// arrival is one scheduled open-loop request.
type arrival struct {
	at  time.Duration // offset from the phase start
	req fleet.SubmitRequest
}

// arrivals draws an open-loop schedule of rate×d requests. Bursts of
// k∈[1,burst] requests for one region are due at the same instant, one
// burst per slot of E[k]/rate seconds at a uniformly drawn offset in its
// slot. The slots keep the offered rate steady: with Poisson arrivals
// the clumps alone moved a 100-sample p90 by a third between seeds. The
// count is fixed, not the span, so every seed samples the same number
// of missions.
func (g *gen) arrivals(d time.Duration) []arrival {
	n := int(math.Round(g.w.rate * d.Seconds()))
	slot := float64(g.w.burst+1) / 2 / g.w.rate
	out := make([]arrival, 0, n)
	for i := 0; len(out) < n; i++ {
		at := time.Duration((float64(i) + g.r.Float64()) * slot * float64(time.Second))
		k := 1 + g.r.IntN(g.w.burst)
		region := regionNames[g.bursts%len(regionNames)]
		g.bursts++
		for range min(k, n-len(out)) {
			out = append(out, arrival{at: at, req: g.request(region)})
		}
	}
	return out
}
