package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"chipkillpm/internal/core"
	"chipkillpm/internal/engine"
	"chipkillpm/internal/fleet"
	"chipkillpm/internal/nvram"
)

// workload is one input set. profile names the WHISPER trace profile
// driving the two demand clients ("" = no demand phase: the cycles are
// the workload).
type workload struct {
	name    string
	profile string
	drift   bool  // ranks carry the runtime RBER during demand
	sample  int64 // latency sample: 1 in every sample ops per kind
}

var workloads = []workload{
	{name: "ycsb-drift", profile: "ycsb", drift: true, sample: 8},
	{name: "hashmap-write", profile: "hashmap", sample: 4},
	{name: "outage-repair", sample: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	setupReps   = 9       // fleet builds per run; setup_s is their median
	demandShare = 1.0 / 3 // share of --seconds the demand workloads spend in demand
	minCycles   = 5       // every run has at least this many outage-repair cycles
	patrolUnits = 64      // VLEWs each guard tick patrols (the guard default)
	latencyCap  = 1 << 19
	// warmupOps is the untimed demand each client runs first, so the
	// replica pool has filled, the drift has reached its steady state
	// and lazily built tables exist before timing starts.
	warmupOps = 1 << 19
)

// Fleet size implied by the geometry: 256 bands of 32 blocks per rank, a
// quarter of them the replica pool.
const (
	fleetBands  = numRanks * (numBanks * rowsPerBank * rowBytes / 8 / bandBlocks) * 3 / 4
	fleetBlocks = fleetBands * bandBlocks
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           []metric
	notes             []string
}

// runWorkload performs one benchmark run. trace selects the per-layer
// run instead of the end-to-end one.
func runWorkload(w workload, seed int64, seconds int, trace bool) (*result, error) {
	in, err := genInputs(seed, w.profile, fleetBlocks, fleetBands)
	if err != nil {
		return nil, err
	}
	b := newBench(in, seed)
	reps := setupReps
	if trace {
		reps = 1
	}
	setupSecs, err := b.setup(reps)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if b.f.Blocks() != fleetBlocks || b.f.Bands() != fleetBands || b.f.BandBlocks() != bandBlocks {
		return nil, fmt.Errorf("fleet has %d blocks in %d bands of %d, benchmark expects %d in %d of %d",
			b.f.Blocks(), b.f.Bands(), b.f.BandBlocks(), fleetBlocks, fleetBands, bandBlocks)
	}
	drift := 0.0
	if w.drift {
		// Steady state of a sawtooth: a VLEW is patrolled every
		// total/patrolUnits ticks and is clean right after, so injecting
		// twice the target mean over one patrol period per tick holds
		// the fleet's average RBER at the runtime figure.
		drift = 2 * runtimeRBER * patrolUnits / float64(b.f.Engine(0).TotalPatrolUnits())
		for r := 0; r < b.f.NumRanks(); r++ {
			rk := b.f.Rank(r)
			b.f.Engine(r).Quiesce(func() { rk.InjectRetentionErrors(runtimeRBER) })
		}
	}
	if trace {
		return b.traced(w, drift)
	}
	return b.untraced(w, seconds, drift, setupSecs)
}

// warmUp builds the two demand clients and runs warmupOps untimed
// operations on each, so timing starts with the replica pool full, the
// drift settled and lazily built tables in place.
func (b *bench) warmUp(w workload, drift float64) []*client {
	cl := b.newClients(w)
	b.demandPhase(cl, 0, warmupOps, drift)
	for _, c := range cl {
		b.fold(c)
	}
	runtime.GC()
	return cl
}

func (b *bench) untraced(w workload, seconds int, drift float64, setupSecs []float64) (*result, error) {
	total := time.Duration(seconds) * time.Second
	var wins []window
	var cycles []cycleResult
	cycleTime := total
	if w.profile != "" {
		cl := b.warmUp(w, drift)
		// A reference slice follows each window, with the clients stopped.
		n := max(1, int(float64(total)*demandShare/float64(windowLen)))
		for i := 0; i < n; i++ {
			wins = append(wins, b.demandPhase(cl, windowLen, 0, drift))
			b.ref.sample()
		}
		for _, c := range cl {
			b.fold(c)
		}
		cycleTime = total - time.Duration(n)*windowLen
	}
	lat := newLatencies(w.sample, latencyCap)
	start := time.Now()
	for i := 0; i < maxCycles && (i < minCycles || time.Since(start) < cycleTime); i++ {
		n := [2]int{len(lat.ns[0]), len(lat.ns[1])}
		r, err := b.cycle(b.in.plans[i], lat, nil)
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, r)
		if w.profile == "" {
			// Outage-repair has no demand phase: each cycle's verify
			// sweeps, heat traffic and light reads are one window.
			wins = append(wins, window{ops: r.demandOps, ns: r.demandNS,
				lat: [2][]int64{lat.ns[0][n[0]:], lat.ns[1][n[1]:]}})
		}
	}
	// Every time is divided, and the throughput multiplied, by the host's
	// slowness over the run (calib.go). Set-up, boot scrub and the repair
	// tick are the same work every time they repeat: each reports the
	// median of its repetitions.
	slow := b.ref.slowness()
	var scrub, repair []float64
	for _, c := range cycles {
		scrub = append(scrub, c.bootScrubS/slow)
		repair = append(repair, c.repairUSPerBlock()/slow)
	}
	res := b.result()
	res.metrics = append([]metric{{"setup_s", median(setupSecs) / slow, "s"}}, windowMetrics(wins, slow)...)
	res.metrics = append(res.metrics,
		metric{"boot_scrub_s", median(scrub), "s"},
		metric{"repair_us_per_block", median(repair), "us"},
	)
	res.metrics = append(res.metrics, metric{"heap_mib", b.fleetHeapMiB(), "MiB"})
	var ops, nr, nw int64
	for _, w := range wins {
		ops += w.ops
		nr += int64(len(w.lat[opRead]))
		nw += int64(len(w.lat[opWrite]))
	}
	res.notes = append(res.notes, fmt.Sprintf("%d demand ops in %d windows, %d read / %d write latency samples, %d cycles",
		ops, len(wins), nr, nw, len(cycles)))
	line := "window ops/s (unscaled):"
	for _, w := range wins {
		line += fmt.Sprintf(" %.0f", float64(w.ops)/(float64(w.ns)/1e9))
	}
	res.notes = append(res.notes, line,
		fmt.Sprintf("host slowness %.4f: median of %d reference slices, from %.4f to %.4f",
			slow, len(b.ref.readings), slices.Min(b.ref.readings), slices.Max(b.ref.readings)),
		"cycle boot_scrub_s (scaled):"+listNote(scrub, "%.4f"),
		"cycle repair_us_per_block (scaled):"+listNote(repair, "%.2f"))
	return res, nil
}

func listNote(xs []float64, format string) string {
	out := ""
	for _, x := range xs {
		out += " " + fmt.Sprintf(format, x)
	}
	return out
}

// windowMetrics reports, all scaled by the host's slowness slow, the
// median over the run's windows of each window's own throughput and of
// each window's latency percentiles, so a stall of the host moves one
// window rather than the result.
func windowMetrics(ws []window, slow float64) []metric {
	pcts := []struct {
		name string
		kind int
		p    float64
	}{
		{"read_p50_us", opRead, 0.5},
		{"read_p99_us", opRead, 0.99},
		{"read_p999_us", opRead, 0.999},
		{"write_p50_us", opWrite, 0.5},
		{"write_p99_us", opWrite, 0.99},
	}
	var rate []float64
	per := make([][]float64, len(pcts))
	for _, w := range ws {
		rate = append(rate, float64(w.ops)/(float64(w.ns)/1e9)*slow)
		for i, q := range pcts {
			if v := percentileUS(w.lat[q.kind], q.p); !math.IsNaN(v) {
				per[i] = append(per[i], v/slow)
			}
		}
	}
	ms := []metric{{"ops_per_s", median(rate), "ops/s"}}
	for i, q := range pcts {
		ms = append(ms, metric{q.name, median(per[i]), "us"})
	}
	return ms
}

func (b *bench) result() *result {
	res := &result{correct: b.correct(), attempted: b.attempted, failed: b.failed}
	if b.corrupt > 0 {
		res.notes = append(res.notes, fmt.Sprintf("FAIL: %d served reads differ from the shadow copy", b.corrupt))
	}
	for _, p := range b.problems {
		res.notes = append(res.notes, "FAIL: "+p)
	}
	return res
}

// fleetHeapMiB is the live heap the fleet holds at the end of the run:
// the heap after a full collection with the fleet reachable, minus the
// heap once the fleet is dropped. The benchmark's own buffers (inputs,
// shadow, samples) are live in both readings and cancel out. The fleet
// is gone afterwards.
func (b *bench) fleetHeapMiB() float64 {
	var with, without runtime.MemStats
	// Two collections each: the first only moves sync.Pool contents to
	// the victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&with)
	b.f = nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(b) // the benchmark's own buffers stay in both readings
	return float64(int64(with.HeapAlloc)-int64(without.HeapAlloc)) / (1 << 20)
}

// counters is a snapshot of every public counter the per-layer metrics
// are derived from.
type counters struct {
	fleet fleet.Stats
	seq   engine.SeqStats
	nv    nvram.Stats
	// Filled in by the caller: fleet ticks over the interval, and the
	// VLEWs boot scrubs covered in it (the rest of ScrubbedVLEWs is the
	// guard's patrol).
	ticks          int64
	bootScrubVLEWs float64
}

func snapshot(f *fleet.Fleet) counters {
	c := counters{fleet: f.Stats()}
	for r := 0; r < f.NumRanks(); r++ {
		s := f.Engine(r).SeqStats()
		c.seq.FastReads += s.FastReads
		c.seq.Retries += s.Retries
		c.seq.LockFallbacks += s.LockFallbacks
		n := f.Rank(r).Stats()
		c.nv.DataWrites += n.DataWrites
		c.nv.RawWrites += n.RawWrites
		c.nv.VLEWCodeWrites += n.VLEWCodeWrites
		c.nv.RowActivations += n.RowActivations
		c.nv.BitErrorsInjected += n.BitErrorsInjected
	}
	return c
}

// delta is the counter movement between two snapshots (engines must be
// the same in both).
func (c counters) delta(prev counters) counters {
	d := c
	d.fleet.Demand = subStats(c.fleet.Demand, prev.fleet.Demand)
	d.fleet.BandsReplicated -= prev.fleet.BandsReplicated
	d.fleet.DivergenceFixes -= prev.fleet.DivergenceFixes
	d.fleet.ReadRepairs -= prev.fleet.ReadRepairs
	d.seq.FastReads -= prev.seq.FastReads
	d.seq.Retries -= prev.seq.Retries
	d.seq.LockFallbacks -= prev.seq.LockFallbacks
	d.nv = subNV(c.nv, prev.nv)
	d.ticks -= prev.ticks
	return d
}

// add accumulates another interval's movement (for intervals measured
// over different fleets, as across outage cycles).
func (c *counters) add(o counters) {
	c.fleet.Demand.Add(o.fleet.Demand)
	c.fleet.BandsReplicated += o.fleet.BandsReplicated
	c.fleet.DivergenceFixes += o.fleet.DivergenceFixes
	c.fleet.ReadRepairs += o.fleet.ReadRepairs
	c.fleet.ActiveReplicas = o.fleet.ActiveReplicas
	c.seq.FastReads += o.seq.FastReads
	c.seq.Retries += o.seq.Retries
	c.seq.LockFallbacks += o.seq.LockFallbacks
	c.nv.DataWrites += o.nv.DataWrites
	c.nv.RawWrites += o.nv.RawWrites
	c.nv.VLEWCodeWrites += o.nv.VLEWCodeWrites
	c.nv.RowActivations += o.nv.RowActivations
	c.nv.BitErrorsInjected += o.nv.BitErrorsInjected
	c.ticks += o.ticks
}

func subStats(a, b core.Stats) core.Stats {
	neg := b
	for _, p := range []*int64{&neg.Reads, &neg.Writes, &neg.ReadsClean, &neg.ReadsRSCorrected,
		&neg.ReadsVLEWFallback, &neg.BitsCorrectedRS, &neg.BitsCorrectedVLEW, &neg.ChipFailuresCorrected,
		&neg.Uncorrectable, &neg.OMVHits, &neg.OMVMisses, &neg.BlockFetches, &neg.BlockWrites,
		&neg.ScrubbedVLEWs, &neg.ScrubCorrections, &neg.ScrubUncorrectable, &neg.BandsMigrated} {
		*p = -*p
	}
	a.Add(neg)
	return a
}

// ratio is num/den, or 0 when den is 0 (the layer did no such work).
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}
