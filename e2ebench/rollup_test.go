package main

import (
	"testing"

	"meshpram/internal/trace"
)

func node(name, phase string, wall, charged int64, kids ...*trace.Node) *trace.Node {
	return &trace.Node{Name: name, Phase: phase, WallNs: wall, Charged: charged, Children: kids}
}

// TestRollupSelfTimeByName rolls up a synthetic PRAM-step tree. The
// greedy spans all carry the forward phase, as the routing engine opens
// them; the rollup must still put the one under a return leg into
// return routing and the one under a repair scrub into repair routing.
func TestRollupSelfTimeByName(t *testing.T) {
	greedy := func(wall int64) *trace.Node {
		n := node("greedy", "forward", wall, 0)
		n.Packets, n.Executed, n.Observed = 7, 2, 10
		return n
	}
	root := node("exec-step", "other", 100, 0,
		node("source-combine", "sort", 5, 11),
		node("step", "other", 90, 0,
			node("culling", "culling", 20, 300),
			node("stage-3", "other", 30, 0,
				node("sortsnake", "sort", 10, 0),
				node("rank", "rank", 3, 0),
				greedy(12),
				node("sort", "sort", 0, 40),
				node("rank", "rank", 0, 4),
				node("forward", "forward", 0, 50)),
			node("access", "access", 2, 1),
			node("return-leg-0", "other", 25, 0,
				greedy(20),
				node("return", "return", 1, 60)),
			node("repair", "repair", 8, 9,
				greedy(5))))
	r := newRollup()
	r.add(root)

	want := map[string]int64{
		bGreedyFwd: 12, bGreedyRet: 20, bGreedyRep: 5,
		bSort: 10, bRank: 3, bCulling: 20, bRepair: 3,
		bCore: 5 + 5 + 2 + 4 + 1, // step, stage-3, access, return-leg-0, return
		bPram: 5 + 5,             // exec-step and source-combine
	}
	for b, ns := range want {
		if r.selfNs[b] != ns {
			t.Errorf("%s self = %d, want %d", b, r.selfNs[b], ns)
		}
	}
	var sum int64
	for _, ns := range r.selfNs {
		sum += ns
	}
	if sum != root.WallNs || r.selfNs[bOther] != 0 {
		t.Errorf("self times sum to %d (other %d), want the root's %d", sum, r.selfNs[bOther], root.WallNs)
	}
	if r.stepNs != 90 {
		t.Errorf("step wall = %d, want 90", r.stepNs)
	}
	if r.packets != 21 || r.executed != 6 || r.observed != 30 {
		t.Errorf("greedy counters = %d/%d/%d, want 21/6/30", r.packets, r.executed, r.observed)
	}
	wantCharged := map[string]int64{"sort": 51, "culling": 300, "rank": 4, "forward": 50, "access": 1, "return": 60, "repair": 9}
	for ph, c := range wantCharged {
		if r.charged[ph] != c {
			t.Errorf("charged %s = %d, want %d", ph, r.charged[ph], c)
		}
	}
}

func TestBucketOfUnknownSpan(t *testing.T) {
	if b := bucketOf("something-new", false, false); b != bOther {
		t.Errorf("unknown span went to %s", b)
	}
}
