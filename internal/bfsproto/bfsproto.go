// Package bfsproto implements the standard distributed BFS spanning-tree
// construction in the CONGEST model, used by every other protocol as its
// opening phase. Beyond the tree itself (parent pointers and depths) the
// protocol computes and disseminates the global values later phases need:
// the tree height depth(T), the node count n, and a shared random seed
// (the paper's shared-randomness assumption, §5.4) — all in O(D) rounds via
// a flood / echo / broadcast sequence.
//
// The phase is written as an in-process routine (Phase) so composite
// protocols (shortcut construction, MST) can run it as their first phase and
// keep end-to-end round accounting in a single simulation run. Phase returns
// with every node aligned at the same global round.
package bfsproto

import (
	"fmt"
	"math"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/graph"
)

// Info is what a node knows after the BFS phase: its tree-local structure
// plus the globally broadcast values.
type Info struct {
	Root     graph.NodeID
	Parent   graph.NodeID // -1 at the root
	Depth    int
	Children []graph.NodeID
	// ParentArc and ChildArcs are the arc indices (into ctx.Neighbors()) of
	// the parent edge (-1 at the root) and the child edges, aligned with
	// Children. Later phases route all tree traffic through them with the
	// engine's SendArc/InboxArc fast paths.
	ParentArc int
	ChildArcs []int
	// Height is depth(T), the paper's D; broadcast from the root.
	Height int
	// Count is the number of nodes n; broadcast from the root.
	Count int
	// Seed is the shared random seed broadcast from the root.
	Seed int64
}

// Wire messages. Bits() reports honest encodings with IDs and depths charged
// at ceil(log2 n) bits.

type offerMsg struct{ depth, n int }

func (m offerMsg) Bits() int { return congest.BitsForID(m.n) }

type acceptMsg struct{}

func (acceptMsg) Bits() int { return 1 }

type echoMsg struct{ maxDepth, count, n int }

func (m echoMsg) Bits() int { return 2 * congest.BitsForID(m.n) }

type doneMsg struct {
	height, count, n int
	seed             int64
	endRound         int
}

func (m doneMsg) Bits() int { return 3*congest.BitsForID(m.n) + 64 }

// Phase runs the BFS phase on one node and blocks until the global round at
// which every node has finished it, so all nodes leave the phase aligned.
// root chooses the tree root; seed is the value the root disseminates as
// shared randomness (only the root's argument matters, mirroring a root
// that locally draws the seed).
func Phase(ctx congest.Net, root graph.NodeID, seed int64) (*Info, error) {
	info := &Info{Root: root, Parent: -1, ParentArc: -1, Depth: -1}
	n := ctx.N()

	// resolved counts neighbors whose status we know (their Offer or Accept
	// arrived); children collects Accept senders.
	resolved := 0
	childEcho := 0
	maxDepth := 0
	count := 1
	adopted := false
	echoSent := false
	var done *doneMsg

	if ctx.ID() == root {
		info.Depth = 0
		adopted = true
		ctx.SendAll(offerMsg{depth: 0, n: n})
	}
	for done == nil {
		// A node acts only on mail, except for an echo deferred by its
		// adoption (or a lone root's): it sleeps until mail otherwise.
		wait := math.MaxInt
		if adopted && !echoSent && resolved == ctx.Degree() && childEcho == len(info.Children) {
			wait = ctx.Round() + 1
		}
		acceptArc := -1
		for _, m := range ctx.Await(wait) {
			switch msg := m.Payload.(type) {
			case offerMsg:
				resolved++
				if !adopted {
					adopted = true
					info.Parent = m.From
					info.ParentArc = ctx.ArcIndex(m.From)
					info.Depth = msg.depth + 1
					maxDepth = info.Depth
					acceptArc = info.ParentArc
				}
			case acceptMsg:
				resolved++
				info.Children = append(info.Children, m.From)
				info.ChildArcs = append(info.ChildArcs, ctx.ArcIndex(m.From))
			case echoMsg:
				childEcho++
				if msg.maxDepth > maxDepth {
					maxDepth = msg.maxDepth
				}
				count += msg.count
			case doneMsg:
				cp := msg
				done = &cp
			default:
				return nil, fmt.Errorf("bfsproto: unexpected payload %T", m.Payload)
			}
		}
		if done != nil {
			break
		}
		if acceptArc != -1 {
			// Adopt: accept the parent, offer to everyone else.
			for k := range ctx.Neighbors() {
				if k == acceptArc {
					ctx.SendArc(k, acceptMsg{})
				} else {
					ctx.SendArc(k, offerMsg{depth: info.Depth, n: n})
				}
			}
		}
		// Echo once the neighborhood is resolved and all children reported.
		// (Children are a subset of resolved neighbors, so after resolution
		// the children set is final.) If we accepted a parent this very round
		// the parent edge is occupied; defer the echo to the next round.
		if adopted && acceptArc == -1 && !echoSent && resolved == ctx.Degree() && childEcho == len(info.Children) {
			echoSent = true
			if ctx.ID() != root {
				ctx.SendArc(info.ParentArc, echoMsg{maxDepth: maxDepth, count: count, n: n})
			} else {
				// Root: tree complete. Kick off the Done broadcast; endRound
				// is when the deepest node will have processed it.
				d := &doneMsg{height: maxDepth, count: count, n: n, seed: seed,
					endRound: ctx.Round() + maxDepth + 1}
				done = d
			}
		}
	}
	info.Height = done.height
	info.Count = done.count
	info.Seed = done.seed
	for _, k := range info.ChildArcs {
		ctx.SendArc(k, *done)
	}
	// Align every node at the same global round before returning.
	if done.endRound < ctx.Round() {
		return nil, fmt.Errorf("bfsproto: node %d past end round (%d > %d)", ctx.ID(), ctx.Round(), done.endRound)
	}
	ctx.Idle(done.endRound - ctx.Round())
	return info, nil
}

// Run executes only the BFS phase on g and returns per-node Info (indexed by
// node) plus the run statistics — the standalone entry point used by tests
// and round-complexity experiments.
func Run(g *graph.Graph, root graph.NodeID, seed int64, opts congest.Options) ([]*Info, congest.Stats, error) {
	infos := make([]*Info, g.NumNodes())
	stats, err := congest.Run(g, func(ctx *congest.Ctx) error {
		info, err := Phase(ctx, root, seed)
		if err != nil {
			return err
		}
		infos[ctx.ID()] = info
		return nil
	}, opts)
	if err != nil {
		return nil, stats, err
	}
	return infos, stats, nil
}
