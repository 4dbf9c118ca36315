package shortcutsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/scenario"
)

// Request is one shortcut query. The graph is named either by a scenario
// registry reference (Family/N/Seed) or by an uploaded edge list
// (Nodes/Edges), never both. The partition is a spec (see PartitionSpec).
// C and B are the construction parameters: both 0 runs the Appendix A
// doubling search, both ≥ 1 runs FindShortcut with exactly those bounds.
type Request struct {
	Family string `json:"family,omitempty"`
	N      int    `json:"n,omitempty"`
	Seed   int64  `json:"seed,omitempty"`

	Nodes int      `json:"nodes,omitempty"`
	Edges EdgeList `json:"edges,omitempty"`

	Partition PartitionSpec `json:"partition"`

	C int `json:"c,omitempty"`
	B int `json:"b,omitempty"`
}

// EdgeList is an uploaded graph's edges, one [u, v] pair per edge. It
// decodes like [][2]int under encoding/json, only faster: see UnmarshalJSON.
type EdgeList [][2]int

// UnmarshalJSON parses the canonical form [[u,v],...] (any whitespace,
// integers of at most 18 digits on 64-bit platforms) in one pass into a
// slice sized from the input. Every other shape — null, inner arrays of
// another length, fractions, exponents, longer integers, non-numbers — is
// handed to encoding/json as a plain [][2]int, so what is accepted, what is
// rejected and the decoded values are exactly encoding/json's.
func (e *EdgeList) UnmarshalJSON(data []byte) error {
	if edges, ok := parseEdgeList(data); ok {
		*e = edges
		return nil
	}
	return json.Unmarshal(data, (*[][2]int)(e))
}

// parseEdgeList parses data if it is a canonical edge list, reporting
// ok=false at the first byte outside that form.
func parseEdgeList(data []byte) (EdgeList, bool) {
	p := edgeParser{data: data}
	if !p.expect('[') {
		return nil, false
	}
	// A canonical list of m pairs holds exactly m+1 closing brackets.
	edges := make(EdgeList, 0, max(bytes.Count(data, []byte{']'})-1, 0))
	if p.expect(']') {
		return edges, p.end()
	}
	for {
		var e [2]int
		var ok bool
		if !p.expect('[') {
			return nil, false
		}
		if e[0], ok = p.integer(); !ok || !p.expect(',') {
			return nil, false
		}
		if e[1], ok = p.integer(); !ok || !p.expect(']') {
			return nil, false
		}
		edges = append(edges, e)
		if p.expect(']') {
			return edges, p.end()
		}
		if !p.expect(',') {
			return nil, false
		}
	}
}

// edgeParser is parseEdgeList's cursor over the input.
type edgeParser struct {
	data []byte
	i    int
}

func (p *edgeParser) skipSpace() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// expect consumes c after optional whitespace, reporting whether it was
// there.
func (p *edgeParser) expect(c byte) bool {
	p.skipSpace()
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (p *edgeParser) end() bool {
	p.skipSpace()
	return p.i == len(p.data)
}

// maxEdgeDigits is the longest integer the fast path parses: 18 digits
// cannot overflow a 64-bit int, 9 cannot overflow a 32-bit one.
const maxEdgeDigits = 9 + 9*(strconv.IntSize/64)

// integer consumes a JSON integer of at most maxEdgeDigits digits after
// optional whitespace. A leading zero before more digits or a longer integer
// fails; a fraction or an exponent fails at the caller, which expects a
// delimiter after the digits.
func (p *edgeParser) integer() (int, bool) {
	p.skipSpace()
	neg := p.i < len(p.data) && p.data[p.i] == '-'
	if neg {
		p.i++
	}
	start := p.i
	v := 0
	for p.i < len(p.data) && p.data[p.i] >= '0' && p.data[p.i] <= '9' {
		v = v*10 + int(p.data[p.i]-'0')
		p.i++
	}
	digits := p.i - start
	switch {
	case digits == 0 || digits > maxEdgeDigits:
		return 0, false
	case digits > 1 && p.data[start] == '0':
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// PartitionSpec names a partition: "voronoi" (Parts seeds BFS-Voronoi cells
// with Seed), "whole" (one part covering V), or "assign" (a raw per-vertex
// part array, partition.None = -1 for uncovered vertices).
type PartitionSpec struct {
	Kind   string `json:"kind"`
	Parts  int    `json:"parts,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Assign []int  `json:"assign,omitempty"`
}

// BadRequestError marks client errors the HTTP layer maps to 400.
type BadRequestError struct{ msg string }

func (e *BadRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &BadRequestError{msg: fmt.Sprintf(format, args...)}
}

// TooLargeError marks size-limit violations the HTTP layer maps to 413.
type TooLargeError struct{ msg string }

func (e *TooLargeError) Error() string { return e.msg }

// IsBadRequest reports whether err is a client-input error.
func IsBadRequest(err error) bool {
	var bre *BadRequestError
	return errors.As(err, &bre)
}

// IsTooLarge reports whether err is a size-limit violation.
func IsTooLarge(err error) bool {
	var tle *TooLargeError
	return errors.As(err, &tle)
}

func (r *Request) validate(cfg Config) error {
	hasFamily := r.Family != ""
	hasUpload := r.Nodes > 0 || len(r.Edges) > 0
	switch {
	case hasFamily && hasUpload:
		return badRequestf("request names both a registry family and an uploaded edge list; pick one")
	case !hasFamily && !hasUpload:
		return badRequestf("request names no graph: set family/n/seed or nodes/edges")
	}
	if hasFamily {
		if _, ok := scenario.Get(r.Family); !ok {
			return badRequestf("unknown scenario family %q", r.Family)
		}
		if r.N < 2 {
			return badRequestf("n must be >= 2, got %d", r.N)
		}
		if r.N > cfg.MaxNodes {
			return &TooLargeError{msg: fmt.Sprintf("n=%d exceeds the limit %d", r.N, cfg.MaxNodes)}
		}
	} else {
		if r.Nodes < 2 {
			return badRequestf("uploaded graph needs nodes >= 2, got %d", r.Nodes)
		}
		if r.Nodes > cfg.MaxNodes {
			return &TooLargeError{msg: fmt.Sprintf("nodes=%d exceeds the limit %d", r.Nodes, cfg.MaxNodes)}
		}
		if len(r.Edges) == 0 {
			return badRequestf("uploaded graph has no edges")
		}
	}
	switch r.Partition.Kind {
	case "voronoi":
		if r.Partition.Parts < 1 {
			return badRequestf("voronoi partition needs parts >= 1, got %d", r.Partition.Parts)
		}
	case "whole":
	case "assign":
		if len(r.Partition.Assign) == 0 {
			return badRequestf("assign partition needs a non-empty assign array")
		}
	case "":
		return badRequestf("partition.kind is required (voronoi, whole or assign)")
	default:
		return badRequestf("unknown partition kind %q", r.Partition.Kind)
	}
	if (r.C == 0) != (r.B == 0) {
		return badRequestf("c and b must both be 0 (doubling search) or both >= 1, got c=%d b=%d", r.C, r.B)
	}
	if r.C < 0 || r.B < 0 {
		return badRequestf("c and b must be non-negative, got c=%d b=%d", r.C, r.B)
	}
	return nil
}

// refKey returns the normalized fast-path key for registry-reference
// requests (ok=false for uploaded graphs, which are hashed per request).
func (r *Request) refKey() (refKey, bool) {
	if r.Family == "" {
		return refKey{}, false
	}
	rk := refKey{
		family: r.Family,
		n:      r.N,
		seed:   r.Seed,
		pkind:  r.Partition.Kind,
		parts:  r.Partition.Parts,
		pseed:  r.Partition.Seed,
		c:      r.C,
		b:      r.B,
	}
	if r.Partition.Kind == "assign" {
		h := graph.HashMix(0x5ca1ab1e, uint64(len(r.Partition.Assign)))
		for _, a := range r.Partition.Assign {
			h = graph.HashMix(h, uint64(int64(a)))
		}
		rk.assignFp = h
	}
	return rk, true
}

// build materializes the request's graph and partition.
func (r *Request) build(cfg Config) (*graph.Graph, *partition.Partition, error) {
	var g *graph.Graph
	if r.Family != "" {
		var err error
		g, err = buildScenario(r.Family, r.N, r.Seed)
		if err != nil {
			return nil, nil, badRequestf("%v", err)
		}
	} else {
		// The streamed build lays out the same CSR as a Builder fed the same
		// edges, so fingerprints agree, but checks duplicates with a stamp
		// scan instead of a per-edge map.
		var err error
		g, err = graph.BuildStreamed(r.Nodes, func(emit func(u, v graph.NodeID, w int64)) {
			for _, e := range r.Edges {
				emit(e[0], e[1], 1)
			}
		})
		if err != nil {
			return nil, nil, badRequestf("invalid uploaded graph: %v", err)
		}
	}
	if !g.Connected() {
		return nil, nil, badRequestf("graph is disconnected; shortcut construction needs a connected graph")
	}

	var p *partition.Partition
	switch r.Partition.Kind {
	case "voronoi":
		if r.Partition.Parts > g.NumNodes() {
			return nil, nil, badRequestf("voronoi parts=%d exceeds the graph's %d nodes", r.Partition.Parts, g.NumNodes())
		}
		p = partition.Voronoi(g, r.Partition.Parts, r.Partition.Seed)
	case "whole":
		p = partition.Whole(g.NumNodes())
	case "assign":
		if len(r.Partition.Assign) != g.NumNodes() {
			return nil, nil, badRequestf("assign array has %d entries for a %d-node graph", len(r.Partition.Assign), g.NumNodes())
		}
		var err error
		p, err = partition.FromAssignment(r.Partition.Assign)
		if err != nil {
			return nil, nil, badRequestf("malformed partition: %v", err)
		}
		if err := p.Validate(g); err != nil {
			return nil, nil, badRequestf("malformed partition: %v", err)
		}
	}
	return g, p, nil
}
