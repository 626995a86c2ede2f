package main

import (
	"fmt"
	"time"
)

const (
	tracePairs    = 3       // untraced/traced demand sub-phase pairs
	traceSubOps   = 1 << 16 // ops per client per demand sub-phase
	traceCycles   = 3       // traced outage-repair cycles per run
	traceFileRoot = ".bench_build/trace"
)

// traced is the per-layer run. It measures the tracing overhead by
// alternating untraced and traced stretches of the same workload, takes
// the fleet's counters over them, runs traced outage-repair cycles, then
// replays the workload's inputs against each inner layer (replay.go).
// End-to-end figures never come from here.
func (b *bench) traced(w workload, drift float64) (*result, error) {
	epoch := time.Now()
	tr := newTracer(epoch, 1<<16)
	root := tr.begin(spRun, -1)
	var untracedOps, tracedOps, untracedNS, tracedNS, ticks int64
	var c counters
	var cycles []cycleResult
	tl := newTickLog()
	var repl []int64

	if w.profile != "" {
		cl := b.warmUp(w, drift)
		b.ticks = tl
		before := snapshot(b.f)
		for pair := 0; pair < tracePairs; pair++ {
			for _, traced := range []bool{false, true} {
				for _, c := range cl {
					c.tr = nil
					if traced {
						c.tr = newTracer(epoch, traceSubOps+traceSubOps/tickEvery+1)
					}
				}
				sp := tr.begin(spDemand, root)
				d := b.demandPhase(cl, 0, traceSubOps, drift)
				tr.end(sp)
				ticks += cl[0].ticks
				for _, c := range cl {
					if c.tr != nil {
						tr.adopt(c.tr, sp)
					}
					b.fold(c)
				}
				if traced {
					tracedOps += d.ops
					tracedNS += d.ns
				} else {
					untracedOps += d.ops
					untracedNS += d.ns
				}
			}
		}
		b.ticks = nil // fleet.tick_* describe the demand phase's ticks
		c = snapshot(b.f).delta(before)
		c.ticks = ticks
		repl = replicatedBands(b.f)
		for i := 0; i < traceCycles; i++ {
			r, err := b.cycle(b.in.plans[i], nil, tr)
			if err != nil {
				return nil, err
			}
			cycles = append(cycles, r)
		}
	} else {
		b.ticks = tl
		for i := 0; i < 2*traceCycles; i++ {
			traced := i%2 == 1
			var t *tracer
			if traced {
				t = tr
			}
			r, err := b.cycle(b.in.plans[i], nil, t)
			if err != nil {
				return nil, err
			}
			cycles = append(cycles, r)
			c.add(r.counters)
			c.bootScrubVLEWs += float64(r.scrubVLEWs)
			if traced {
				tracedOps += r.demandOps
				tracedNS += r.demandNS
			} else {
				untracedOps += r.demandOps
				untracedNS += r.demandNS
			}
		}
		repl = replicatedBands(b.f)
	}

	lay, err := b.replay(w, tr, root, drift, repl)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	res := b.result()
	res.metrics = layerMetrics(b, c, cycles, lay, tl)
	untracedRate := float64(untracedOps) / float64(untracedNS)
	tracedRate := float64(tracedOps) / float64(tracedNS)
	res.metrics = append(res.metrics,
		metric{"trace.overhead_pct", 100 * (1 - tracedRate/untracedRate), "%"},
	)
	path := fmt.Sprintf("%s/%s.tsv", traceFileRoot, w.name)
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	return res, nil
}

// layerMetrics derives the per-layer figures. Counts come from the
// fleet's public counters over the traced run's demand; times from the
// cycle reports and the replay spans.
func layerMetrics(b *bench, c counters, cycles []cycleResult, lay replayTimes, tl *tickLog) []metric {
	d := c.fleet.Demand
	reads, writes := float64(d.Reads), float64(d.Writes)
	// Every acknowledged demand write is one OMV-XOR block write on its
	// primary; every other block write is a raw replica write-through,
	// a replication copy, an anti-entropy fix or a read repair.
	writeThrough := float64(d.BlockWrites-d.Writes) -
		float64(c.fleet.BandsReplicated*bandBlocks+c.fleet.DivergenceFixes+c.fleet.ReadRepairs)

	var scrubNS, scrubVLEWs float64
	var bits, rebuilt, replNS, eraNS, share, ticks []float64
	for _, r := range cycles {
		scrubNS += r.bootScrubS * 1e9
		scrubVLEWs += float64(r.scrubVLEWs)
		bits = append(bits, float64(r.scrubBits))
		rebuilt = append(rebuilt, float64(r.rebuilt))
		replNS = append(replNS, r.repair.ReplicaNSPerBlock())
		eraNS = append(eraNS, r.repair.ErasureNSPerBlock())
		share = append(share, ratio(float64(r.repair.ReplicaBlocks), float64(r.repair.ReplicaBlocks+r.repair.ErasureBlocks)))
		ticks = append(ticks, float64(r.ticksToRepair))
	}
	var tickSum, allocSum float64
	for i := range tl.ns {
		tickSum += float64(tl.ns[i])
		allocSum += float64(tl.allocs[i])
	}
	nTicks := float64(len(tl.ns))
	patrol := float64(d.ScrubbedVLEWs) - c.bootScrubVLEWs

	return []metric{
		{"fleet.read_self_ns", lay.fleetRead - lay.engineRead, "ns"},
		{"fleet.write_self_ns", lay.fleetWrite - lay.engineWrite, "ns"},
		{"fleet.writethrough_per_kwrite", 1000 * ratio(writeThrough, writes), "count"},
		{"fleet.tick_us", ratio(tickSum, nTicks) / 1e3, "us"},
		{"fleet.tick_allocs", ratio(allocSum, nTicks), "count"},
		{"fleet.active_replicas", float64(c.fleet.ActiveReplicas), "count"},
		{"fleet.repair_replica_ns_per_block", median(replNS), "ns"},
		{"fleet.repair_erasure_ns_per_block", median(eraNS), "ns"},
		{"fleet.replica_block_share", median(share), "ratio"},
		{"guard.ticks_to_repair", median(ticks), "count"},
		{"guard.patrol_units", ratio(patrol, float64(c.ticks)), "count"},
		{"engine.read_ns", lay.engineRead, "ns"},
		{"engine.fast_read_share", ratio(float64(c.seq.FastReads), reads), "ratio"},
		{"engine.seq_retries_per_kread", 1000 * ratio(float64(c.seq.Retries), reads), "count"},
		{"engine.lock_fallbacks_per_kread", 1000 * ratio(float64(c.seq.LockFallbacks), reads), "count"},
		{"engine.write_ns", lay.engineWrite, "ns"},
		{"engine.patrol_us", lay.patrolUS, "us"},
		{"core.read_ns", lay.coreRead, "ns"},
		{"core.rs_corrected_per_kread", 1000 * ratio(float64(d.ReadsRSCorrected), reads), "count"},
		{"core.vlew_fallback_per_mread", 1e6 * ratio(float64(d.ReadsVLEWFallback), reads), "count"},
		{"core.fetches_per_op", ratio(float64(d.BlockFetches), reads+writes), "count"},
		{"core.omv_miss_share", ratio(float64(d.OMVMisses), float64(d.OMVMisses+d.OMVHits)), "ratio"},
		{"core.write_ns", lay.coreWrite, "ns"},
		{"core.scrub_ns_per_vlew", ratio(scrubNS, scrubVLEWs), "ns"},
		{"core.scrub_bits_corrected", median(bits), "count"},
		{"core.rebuilt_blocks", median(rebuilt), "count"},
		{"rank.gather_ns", lay.rankGather, "ns"},
		{"rank.write_xor_ns", lay.rankWriteXOR, "ns"},
		{"nvram.c_factor", ratio(float64(c.nv.VLEWCodeWrites), float64(c.nv.DataWrites)), "ratio"},
		{"nvram.row_activations_per_write", ratio(float64(c.nv.RowActivations), float64(c.nv.DataWrites+c.nv.RawWrites)), "count"},
		{"nvram.bits_flipped", float64(c.nv.BitErrorsInjected), "count"},
		{"bch.decode_us_per_vlew", lay.bchDecodeUS, "us"},
		{"bch.encode_delta_ns", lay.bchEncodeDelta, "ns"},
		{"rs.check_ns", lay.rsCheck, "ns"},
		{"rs.decode_ns", lay.rsDecode, "ns"},
		{"rs.erasure_decode_ns", lay.rsErasure, "ns"},
	}
}
