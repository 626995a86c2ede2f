package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. Fleet spans wrap the benchmark's own calls into the fleet;
// the replay spans wrap batches of the same inputs sent straight to an
// inner layer's public functions (see replay.go).
const (
	spRun = iota
	spDemand
	spCycle
	spFleetRead
	spFleetWrite
	spFleetTick
	spBootScrub
	spRepairTick
	spReplay
	spReplayFleetRead
	spReplayFleetWrite
	spEngineRead
	spEngineWrite
	spEnginePatrol
	spCoreRead
	spCoreWrite
	spRankGather
	spRankWriteXOR
	spRSCheck
	spRSDecode
	spRSErasure
	spBCHDecode
	spBCHEncodeDelta
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"run", "demand", "cycle",
	"fleet.ReadBlockInto", "fleet.WriteBlock", "fleet.Tick",
	"engine.BootScrub", "fleet.Tick(repair)",
	"replay",
	"fleet.ReadBlockInto[batch]", "fleet.WriteBlock[batch]",
	"engine.ReadBlockInto[batch]", "engine.WriteBlock[batch]", "engine.PatrolScrub",
	"core.ReadBlockInto[batch]", "core.WriteBlock[batch]",
	"rank.ReadBlockRawInto[batch]", "rank.WriteBlockXOR[batch]",
	"rs.Check[batch]", "rs.DecodeLimited[batch]", "rs.Decode(erasures)[batch]",
	"bch.Decode[batch]", "bch.EncodeDeltaInto[batch]",
}

// span is one timed call: name, start and end in nanoseconds since the
// tracer's epoch, the index of the enclosing span (-1 at the root) and
// the number of operations the span covers (1 for a single call, the
// batch size for a replay batch).
type span struct {
	name       uint8
	parent     int32
	ops        int32
	start, end int64
}

// tracer records spans in memory, one tracer per goroutine. All methods
// are no-ops on a nil tracer, which is how untraced runs pass one.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name int, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: uint8(name), parent: parent, ops: 1,
		start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// endBatch closes a span that covered ops operations.
func (t *tracer) endBatch(i int32, ops int) {
	if t == nil {
		return
	}
	t.spans[i].ops = int32(ops)
	t.end(i)
}

// adopt appends another tracer's spans (same epoch), re-basing their
// parent links; spans whose parent was a root stay under parent.
func (t *tracer) adopt(o *tracer, parent int32) {
	base := int32(len(t.spans))
	for _, s := range o.spans {
		if s.parent < 0 {
			s.parent = parent
		} else {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// spanStat aggregates spans of one name.
type spanStat struct {
	ops, ns int64
}

func (s spanStat) nsPerOp() float64 {
	if s.ops == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.ops)
}

// write dumps the spans as tab-separated lines: index, name, start ns,
// end ns, parent index, operations covered.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(fh)
	fmt.Fprintln(w, "id\tname\tstart_ns\tend_ns\tparent\tops")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[s.name], s.start, s.end, s.parent, s.ops)
	}
	if err := w.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
