package main

import (
	"fmt"
	"math/rand"

	"chipkillpm/internal/cpu"
	"chipkillpm/internal/trace"
)

// Fleet shape every workload runs on: four ranks of paper-layout chips
// (8 data + 1 parity, 8 B per chip per block, 256 B VLEWs), each chip
// 64 banks x 4 rows x 256 B of row data (one VLEW per row). With the
// fleet's default quarter-rank replica pool that is 24576 demand blocks
// (1.5 MiB).
//
// The engine runs one shard per bank, so the bank count sets how often
// the two demand clients meet on a shard, and a read that meets a writer
// can wait for it or park on the shard lock. The bank count keeps each
// read percentile inside one population of reads. With 64 banks about
// 0.3-0.5% of reads wait (p99.7 is already past the knee on either
// demand workload), so read_p99_us lies among the reads that met no
// writer and read_p999_us among the parked ones. With 32 banks the
// hashmap-write knee sat near p99 and read_p99_us moved by a quarter
// from run to run; with 4 banks the ycsb-drift parked share sat near 1%
// and read_p99_us jumped tenfold. Rows of 256 B keep the fleet at
// 1.5 MiB with four rows per bank, so writes still open rows and drain
// the EUR (hashmap-write opens a row on about 0.13 writes in one; 32
// banks of 8 rows opened one on about 0.16).
const (
	numRanks    = 4
	numBanks    = 64
	rowsPerBank = 4
	rowBytes    = 256
	blockBytes  = 64

	ringOps   = 1 << 18 // pregenerated demand ops per client, replayed cyclically
	nPayloads = 1 << 13 // distinct 64 B write payloads
	maxCycles = 512     // pregenerated outage-repair cycle plans
)

// op is one demand operation: a read when payload < 0, otherwise a write
// of payloads[payload].
type op struct {
	block   int32
	payload int32
}

// cyclePlan holds the seeded choices of one outage → boot scrub → chip
// repair cycle.
type cyclePlan struct {
	deadChip int     // data chip of rank 0 that dies during the outage
	killRank int     // rank whose data chip dies after boot (never rank 0)
	killChip int     // that chip
	hotBands []int64 // fleet bands on killRank heated until replicated
	heat     []int32 // one payload per heat write
	light    []int64 // blocks on killRank read between supervision ticks
}

// inputs is everything a run feeds the program, generated from the seed
// before any timing starts.
type inputs struct {
	initial  []byte // blocks x 64 B populate contents
	payloads []byte // nPayloads x 64 B
	rings    [2][]op
	plans    []cyclePlan
}

func (in *inputs) payload(i int32) []byte {
	return in.payloads[int(i)*blockBytes : (int(i)+1)*blockBytes]
}

const (
	heatBands  = 4  // bands heated per cycle
	heatPasses = 8  // read+write passes over each heated band
	lightReads = 16 // reads on the kill rank before every tick
	bandBlocks = 32 // blocks per band: one 256 B VLEW span / 8 B per chip
)

// genInputs draws the populate data, the write payloads, both clients'
// demand streams and the cycle plans. profile is a WHISPER trace profile
// name, or "" for the outage-repair workload, whose demand is the cycle
// itself (verify sweeps and heat writes).
func genInputs(seed int64, profile string, blocks, bands int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		initial:  make([]byte, blocks*blockBytes),
		payloads: make([]byte, nPayloads*blockBytes),
	}
	rng.Read(in.initial)
	rng.Read(in.payloads)
	half := blocks / 2
	for c := 0; c < 2; c++ {
		base := int64(c) * half
		if profile == "" {
			in.rings[c] = sweepRing(rng, base, half)
			continue
		}
		p, ok := trace.FindWorkload(profile)
		if !ok {
			return nil, fmt.Errorf("unknown trace profile %q", profile)
		}
		in.rings[c] = traceRing(rng, p, base, half, seed*31+int64(c))
	}
	for i := 0; i < maxCycles; i++ {
		in.plans = append(in.plans, genPlan(rng, bands))
	}
	return in, nil
}

// traceRing converts a WHISPER stream into fleet ops. The profile's PM
// footprint is rescaled to the client's share of the fleet, so a PM
// block address is the client's block index directly: the hot set stays
// the same fraction of the space and sequential write runs stay
// sequential. PM loads become fleet reads; clwb write-backs (the moment
// a dirty persistent block reaches memory) become fleet writes; DRAM
// traffic, compute and cached stores never reach the fleet.
func traceRing(rng *rand.Rand, p trace.Profile, base, span, seed int64) []op {
	const dramBase = 1 << 40
	p.PMFootprintBlocks = span
	s := trace.NewStream(p, 0, dramBase, seed)
	ring := make([]op, 0, ringOps)
	for len(ring) < ringOps {
		o := s.Next()
		if o.Addr >= dramBase {
			continue
		}
		b := int32(base + int64(o.Addr/blockBytes))
		switch o.Kind {
		case cpu.Load:
			ring = append(ring, op{block: b, payload: -1})
		case cpu.Clwb:
			ring = append(ring, op{block: b, payload: int32(rng.Intn(nPayloads))})
		}
	}
	return ring
}

// sweepRing is the outage-repair replay stream: one read of every block
// of the client's half, then a write to every eighth block.
func sweepRing(rng *rand.Rand, base, span int64) []op {
	ring := make([]op, 0, span+span/8)
	for b := base; b < base+span; b++ {
		ring = append(ring, op{block: int32(b), payload: -1})
	}
	for b := base; b < base+span; b += 8 {
		ring = append(ring, op{block: int32(b), payload: int32(rng.Intn(nPayloads))})
	}
	return ring
}

func genPlan(rng *rand.Rand, bands int64) cyclePlan {
	p := cyclePlan{
		deadChip: rng.Intn(8),
		killRank: 1 + rng.Intn(numRanks-1),
		killChip: rng.Intn(8),
	}
	perRank := bands / numRanks
	// The hot bands lie in distinct banks (a rank's band lb is a row of
	// bank lb % numBanks), so every cycle's heat passes open the same
	// number of rows: with two hot bands in one bank each pass would
	// switch that bank's open row back and forth, and the share of slow
	// row-opening writes, which write_p99_us sits near, would change
	// from plan to plan.
	bankUsed := map[int64]bool{}
	for len(p.hotBands) < heatBands {
		lb := rng.Int63n(perRank)
		if bankUsed[lb%numBanks] {
			continue
		}
		bankUsed[lb%numBanks] = true
		p.hotBands = append(p.hotBands, lb*numRanks+int64(p.killRank))
	}
	for i := 0; i < heatBands*heatPasses*bandBlocks; i++ {
		p.heat = append(p.heat, int32(rng.Intn(nPayloads)))
	}
	for i := 0; i < 64*lightReads; i++ {
		band := rng.Int63n(perRank)*numRanks + int64(p.killRank)
		p.light = append(p.light, band*bandBlocks+rng.Int63n(bandBlocks))
	}
	return p
}
