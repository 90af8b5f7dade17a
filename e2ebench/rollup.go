package main

import (
	"strings"

	"meshpram/internal/trace"
)

// Self-time buckets. Spans are attributed by name, not by trace.Phase:
// the routing engine opens its "greedy" span with PhaseForward even when
// it serves a return leg, so a rollup by phase would show return
// routing at zero.
const (
	bGreedyFwd = "route.greedy.forward"
	bGreedyRet = "route.greedy.return"
	bGreedyRep = "route.greedy.repair"
	bSort      = "route.sort"
	bRank      = "route.rank"
	bCulling   = "culling"
	bCore      = "core"
	bRepair    = "core.repair"
	bPram      = "pram"
	bOther     = "other"
)

// bucketOf names the layer a span's self time belongs to. underReturn
// and underRepair say whether an ancestor is a return leg or a repair
// scrub, which decides where greedy routing time goes.
func bucketOf(name string, underReturn, underRepair bool) string {
	switch {
	case name == "greedy" || name == "greedy-actors":
		switch {
		case underRepair:
			return bGreedyRep
		case underReturn:
			return bGreedyRet
		}
		return bGreedyFwd
	case name == "sortsnake" || name == "sortsnake-net" || name == "rotatesort":
		return bSort
	case name == "rank" || name == "prefix-sum":
		return bRank
	case name == "culling":
		return bCulling
	case name == "repair" || name == "retry-backoff":
		return bRepair
	case name == "exec-step" || name == "source-combine":
		return bPram
	case name == "step" || name == "combine" || name == "access" || name == "direct" ||
		name == "sort" || name == "forward" || name == "return" || name == "faultview" ||
		strings.HasPrefix(name, "stage-") || strings.HasPrefix(name, "return-leg-"):
		return bCore
	}
	return bOther
}

// rollup accumulates ledger trees: host self time per bucket, charged
// cycles per phase, and the routing engine's counters.
type rollup struct {
	selfNs  map[string]int64
	charged map[string]int64 // by trace.Phase name

	stepNs   int64 // wall time of the core "step" spans
	packets  int64 // packets injected into greedy routing
	executed int64 // engine iterations physically executed by greedy routing
	observed int64 // cycles greedy routing ran, charged at its parents
	roots    int
}

func newRollup() *rollup {
	return &rollup{selfNs: map[string]int64{}, charged: map[string]int64{}}
}

// add folds one completed root tree into the rollup.
func (r *rollup) add(root *trace.Node) {
	r.roots++
	r.walk(root, false, false)
}

func (r *rollup) walk(n *trace.Node, underReturn, underRepair bool) {
	b := bucketOf(n.Name, underReturn, underRepair)
	self := n.WallNs
	for _, c := range n.Children {
		self -= c.WallNs
	}
	r.selfNs[b] += max(self, 0)
	r.charged[n.Phase] += n.Charged
	if n.Name == "step" {
		r.stepNs += n.WallNs
	}
	if b == bGreedyFwd || b == bGreedyRet || b == bGreedyRep {
		r.packets += n.Packets
		r.executed += n.Executed
		r.observed += n.Observed
	}
	underReturn = underReturn || strings.HasPrefix(n.Name, "return-leg-")
	underRepair = underRepair || n.Name == "repair"
	for _, c := range n.Children {
		r.walk(c, underReturn, underRepair)
	}
}

// keptTrees is how many span trees a traced run writes to its trace
// file.
const keptTrees = 4

// spanSink is the trace.Sink of a traced pass: it rolls every completed
// root up as it arrives and keeps the first keptTrees trees for the
// trace file, so memory stays bounded however long the pass runs.
type spanSink struct {
	r     *rollup
	trees []*trace.Node
}

func newSpanSink() *spanSink { return &spanSink{r: newRollup()} }

// Emit implements trace.Sink.
func (s *spanSink) Emit(root *trace.Span) {
	n := trace.Export(root)
	s.r.add(n)
	if len(s.trees) < keptTrees {
		s.trees = append(s.trees, n)
	}
}
