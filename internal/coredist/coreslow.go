package coredist

import (
	"fmt"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/congest"
	"lcshortcut/internal/partition"
)

// Wire messages shared by the core subroutines.

// idMsg carries one part ID up the tree.
type idMsg struct{ part, n int }

func (m idMsg) Bits() int { return congest.BitsForID(m.n) + 1 }

// termMsg terminates a node's per-phase transmission and reports whether its
// parent edge stays usable.
type termMsg struct{ usable bool }

func (termMsg) Bits() int { return 2 }

// upwardPass is the bottom-up tree sweep shared by Algorithm 1 and
// Algorithm 2's first stage: depth(T)+1 phases of phaseLen rounds each; in
// its phase, a node gathers the part IDs visible over usable child edges
// (plus its own, subject to the remaining and activeOnly filters), declares
// its parent edge unusable when overLimit(count) holds, and otherwise
// serially transmits the IDs to its parent followed by a terminator.
func upwardPass(
	ctx *congest.Ctx,
	info *bfsproto.Info,
	assign PartAssign,
	phaseLen int,
	skipOwnPart bool,
	activeOnly func(int) bool,
	overLimit func(int) bool,
) (*NodeShortcut, error) {
	ns := newNodeShortcut(info)
	myPhase := info.Height - info.Depth
	total := (info.Height + 1) * phaseLen

	recv := make([][]int, len(info.Children)) // per child index: IDs received
	var (
		pending  []int
		sent     int
		unusable bool
		termSent bool
		inbox    []congest.Message
	)
	// Round offsets from entry: a node acts on mail and from its phase
	// start until its terminator is out, and sleeps in Await otherwise.
	start, mine := ctx.Round(), myPhase*phaseLen
	for r := 0; ; r = ctx.Round() - start {
		for _, m := range inbox {
			k := ns.ChildIndex(m.From)
			if k < 0 {
				return nil, fmt.Errorf("coredist: node %d got an upward-pass message from non-child %d", ctx.ID(), m.From)
			}
			switch msg := m.Payload.(type) {
			case idMsg:
				recv[k] = append(recv[k], msg.part)
			case termMsg:
				ns.ChildUsable[k] = msg.usable
				if msg.usable {
					ns.ChildParts[k] = sortedDedup(recv[k])
				}
				recv[k] = nil
			default:
				return nil, fmt.Errorf("coredist: unexpected payload %T in upward pass", m.Payload)
			}
		}
		if r == mine {
			// All children transmitted in earlier phases; compute L_v.
			pending = gatherLocal(ns, assign, ctx.ID(), skipOwnPart, activeOnly)
			if overLimit(len(pending)) {
				unusable = true
			} else if info.Parent != -1 {
				ns.ParentUsable = true
				ns.ParentParts = pending
			}
		}
		if r >= mine && info.Parent != -1 && !termSent {
			switch {
			case unusable:
				ctx.SendArc(info.ParentArc, termMsg{usable: false})
				termSent = true
			case sent < len(pending):
				ctx.SendArc(info.ParentArc, idMsg{part: pending[sent], n: info.Count})
				sent++
			default:
				ctx.SendArc(info.ParentArc, termMsg{usable: true})
				termSent = true
			}
		}
		if r == total {
			break
		}
		next := total
		switch {
		case r < mine:
			next = mine
		case info.Parent != -1 && !termSent:
			next = r + 1
		}
		inbox = ctx.Await(start + next)
	}
	return ns, nil
}

// CoreSlowPhase runs Algorithm 1 on one node, starting from a completed BFS
// phase (all nodes aligned at the same round). The tree is processed bottom
// up in depth(T)+1 phases of 2c+2 rounds each: in its phase a node transmits
// the part IDs its parent edge can see, or declares the edge unusable if
// more than 2c parts try to use it. Total cost O(D·c) rounds, matching
// Lemma 7. The result is bit-identical to the centralized core.CoreSlow.
//
// skipOwnPart, when true, keeps this node from injecting its own part ID —
// FindShortcut sets it on nodes whose part has already been fixed in an
// earlier iteration (the distributed form of the centralized remaining
// filter).
func CoreSlowPhase(ctx *congest.Ctx, info *bfsproto.Info, assign PartAssign, c int, skipOwnPart bool) (*NodeShortcut, error) {
	if c < 1 {
		return nil, fmt.Errorf("coredist: CoreSlow needs c >= 1, got %d", c)
	}
	return upwardPass(ctx, info, assign, 2*c+2, skipOwnPart, nil, func(k int) bool { return k > 2*c })
}

// gatherLocal computes the sorted union of this node's own part (subject to
// the skip/active filters) with the lists received over usable child edges —
// the distributed analogue of the centralized gather step.
func gatherLocal(ns *NodeShortcut, assign PartAssign, v int, skipOwnPart bool, activeOnly func(int) bool) []int {
	var lv []int
	if i := assign.Part(v); i != partition.None && !skipOwnPart && (activeOnly == nil || activeOnly(i)) {
		lv = append(lv, i)
	}
	for k, usable := range ns.ChildUsable {
		if !usable {
			continue
		}
		for _, id := range ns.ChildParts[k] {
			lv = sortedInsert(lv, id)
		}
	}
	return lv
}

func sortedDedup(ids []int) []int {
	var out []int
	for _, id := range ids {
		out = sortedInsert(out, id)
	}
	return out
}
