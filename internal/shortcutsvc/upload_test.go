package shortcutsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lcshortcut/internal/graph"
	"lcshortcut/internal/scenario"
	"lcshortcut/internal/tree"
)

// shadowRequest is Request with a plain [][2]int edge list: what
// encoding/json alone makes of a body.
type shadowRequest struct {
	Family    string        `json:"family,omitempty"`
	N         int           `json:"n,omitempty"`
	Seed      int64         `json:"seed,omitempty"`
	Nodes     int           `json:"nodes,omitempty"`
	Edges     [][2]int      `json:"edges,omitempty"`
	Partition PartitionSpec `json:"partition"`
	C         int           `json:"c,omitempty"`
	B         int           `json:"b,omitempty"`
}

func (sh *shadowRequest) request() *Request {
	return &Request{Family: sh.Family, N: sh.N, Seed: sh.Seed, Nodes: sh.Nodes,
		Edges: EdgeList(sh.Edges), Partition: sh.Partition, C: sh.C, B: sh.B}
}

// decodeShadow decodes body as handleShortcut does, into a shadowRequest.
func decodeShadow(body string) (*Request, error) {
	var sh shadowRequest
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sh); err != nil {
		return nil, err
	}
	return sh.request(), nil
}

// checkSameDecode asserts that body decodes through decodeRequest exactly
// as through encoding/json alone: the same accept/reject outcome, equal
// requests on accept, and on reject the same error up to the name of the
// struct in the field path. encoding/json returns an Unmarshaler's error
// ahead of errors it saved from earlier fields, so where the edge list
// itself is malformed an edge-list type error may stand in for the shadow's
// earlier one.
func checkSameDecode(t *testing.T, body string) *Request {
	t.Helper()
	got, gotErr := decodeRequest(strings.NewReader(body))
	want, wantErr := decodeShadow(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: decodeRequest err = %v, encoding/json err = %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		g, w := gotErr.Error(), strings.ReplaceAll(wantErr.Error(), "shadowRequest", "Request")
		var te *json.UnmarshalTypeError
		if g != w && !(errors.As(gotErr, &te) && strings.HasPrefix(te.Field, "edges")) {
			t.Fatalf("body %q: decodeRequest err %q, encoding/json err %q", body, g, w)
		}
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: decodeRequest %+v, encoding/json %+v", body, got, want)
	}
	return got
}

// edgeBodies are edge-list values around the fast path's edges: canonical
// forms in any spacing, and shapes it must leave to encoding/json.
var edgeBodies = []string{
	`[[0,1],[1,2]]`,
	" \t[ [0 , 1 ]\n,\r[ 1,2] ] ",
	`[]`,
	`[ ]`,
	`null`,
	`[[0,1,2]]`,
	`[[0]]`,
	`[[]]`,
	`[[0,1],null]`,
	`[[1.0,2]]`,
	`[[1e2,2]]`,
	`[[1E2,2]]`,
	`[[-0,1]]`,
	`[[-5,1]]`,
	`[[123456789012345678,1]]`,
	`[[-123456789012345678,1]]`,
	`[[1234567890123456789,1]]`,
	`[[9223372036854775807,1]]`,
	`[[9223372036854775808,1]]`,
	`[[-9223372036854775808,1]]`,
	`[["0",1]]`,
	`[[true,1]]`,
	`[[0,1]`,
	`[[0,1]]]`,
	`[[01,2]]`,
	`[[0,1],]`,
	`[[0 1]]`,
	`[[- 1,2]]`,
	`[[1,2]] x`,
	`[] x`,
	`"edges"`,
	`{"0":1}`,
	`7`,
}

// TestEdgeListDecode pins the hand parser to encoding/json on the edge-list
// shapes it parses and those it hands back.
func TestEdgeListDecode(t *testing.T) {
	for _, edges := range edgeBodies {
		// Called directly, on bytes no decoder has checked.
		var got EdgeList
		var want [][2]int
		gotErr, wantErr := got.UnmarshalJSON([]byte(edges)), json.Unmarshal([]byte(edges), &want)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual([][2]int(got), want) {
			t.Errorf("UnmarshalJSON(%s) = %v, %v; encoding/json gives %v, %v", edges, got, gotErr, want, wantErr)
		}
		checkSameDecode(t, `{"nodes":3,"edges":`+edges+`,"partition":{"kind":"whole"}}`)
		// A second "edges" key decodes into the first one's slice.
		checkSameDecode(t, `{"edges":[[7,8],[9,10],[11,12]],"edges":`+edges+`}`)
		// An earlier field's type error or unknown field, then the list.
		checkSameDecode(t, `{"n":"x","edges":`+edges+`}`)
		checkSameDecode(t, `{"bogus":1,"edges":`+edges+`}`)
	}
	got := checkSameDecode(t, `{"edges":[]}`)
	if got.Edges == nil {
		t.Error(`"edges":[] decoded to a nil slice; encoding/json gives an empty one`)
	}
}

// FuzzRequest decodes arbitrary bodies through handleShortcut's decoder and
// through encoding/json alone (checkSameDecode), then answers the accepted
// ones: Query must not panic, whatever the request.
func FuzzRequest(f *testing.F) {
	for _, tc := range handlerCases {
		f.Add(tc.body)
	}
	for _, edges := range edgeBodies {
		f.Add(`{"nodes":3,"edges":` + edges + `,"partition":{"kind":"whole"}}`)
	}
	f.Add(`{"nodes":4,"edges":[[0,1],[1,2],[2,3]],"partition":{"kind":"assign","assign":[0,0,1,1]},"c":2,"b":2}`)
	f.Add(`{"family":"grid","n":16,"seed":-0,"partition":{"kind":"voronoi","parts":3,"seed":9}}`)
	svc := New(Config{MaxNodes: 64, CacheEntries: 8})
	f.Fuzz(func(t *testing.T, body string) {
		if req := checkSameDecode(t, body); req != nil {
			_, _, _ = svc.Query(req)
		}
	})
}

// TestUploadEquivalence checks, for the svc families at n ∈ {1024, 2048},
// that an uploaded edge list builds the graph a Builder builds from the same
// edges: equal fingerprints, equal FindEdge answers on every edge and on
// non-edges, equal BFS trees, and one cache entry for both forms.
func TestUploadEquivalence(t *testing.T) {
	families := []string{"grid", "surface", "geometric", "er-sparse", "ba", "regular", "caveman"}
	svc := New(Config{})
	rng := rand.New(rand.NewSource(1))
	for _, family := range families {
		for _, n := range []int{1024, 2048} {
			t.Run(fmt.Sprintf("%s-n%d", family, n), func(t *testing.T) {
				seed := int64(n) + 7
				ref := &Request{Family: family, N: n, Seed: seed,
					Partition: PartitionSpec{Kind: "voronoi", Parts: 32, Seed: seed}}
				src := scenario.MustGet(family).Build(n, seed)
				b := graph.MustNewBuilder(src.NumNodes())
				up := &Request{Nodes: src.NumNodes(), Partition: ref.Partition}
				for _, e := range src.Edges() {
					b.MustAddEdge(e.U, e.V, 1)
					up.Edges = append(up.Edges, [2]int{e.U, e.V})
				}
				want := b.Finalize()
				got, _, err := up.build(svc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Fingerprint() != want.Fingerprint() {
					t.Fatalf("fingerprint %016x, Builder's %016x", got.Fingerprint(), want.Fingerprint())
				}
				nv := got.NumNodes()
				for id, e := range want.Edges() {
					for _, uv := range [][2]int{{e.U, e.V}, {e.V, e.U}} {
						if gid, ok := got.FindEdge(uv[0], uv[1]); !ok || gid != id {
							t.Fatalf("FindEdge%v = %d,%v, want %d", uv, gid, ok, id)
						}
					}
				}
				probes := [][2]int{{0, 0}, {-1, 0}, {0, nv}, {nv, nv - 1}}
				for len(probes) < 4+4*nv {
					probes = append(probes, [2]int{rng.Intn(nv), rng.Intn(nv)})
				}
				for _, uv := range probes {
					gid, gok := got.FindEdge(uv[0], uv[1])
					wid, wok := want.FindEdge(uv[0], uv[1])
					if gid != wid || gok != wok {
						t.Fatalf("FindEdge%v = %d,%v, Builder's %d,%v", uv, gid, gok, wid, wok)
					}
				}
				gt, wt := tree.BFSTree(got, 0), tree.BFSTree(want, 0)
				for v := 0; v < nv; v++ {
					if gt.Parent(v) != wt.Parent(v) || gt.ParentEdge(v) != wt.ParentEdge(v) || gt.Depth(v) != wt.Depth(v) {
						t.Fatalf("BFS tree differs at vertex %d", v)
					}
				}
				refEnt, _, err := svc.Query(ref)
				if err != nil {
					t.Fatal(err)
				}
				upEnt, out, err := svc.Query(up)
				if err != nil {
					t.Fatal(err)
				}
				if out != OutcomeHit || upEnt != refEnt {
					t.Fatalf("upload form answered %s from entry %p, reference form's entry is %p", out, upEnt, refEnt)
				}
			})
		}
	}
}

// TestRefIndexBounded pins the bound on the registry-reference index: it
// keeps only references to cached entries, and at most maxRefsPerEntry per
// entry, however many distinct references clients name.
func TestRefIndexBounded(t *testing.T) {
	const capacity = 4
	svc := New(Config{CacheEntries: capacity})
	refsLen := func() int {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return len(svc.refs)
	}
	// Distinct structures: each reference is a new entry, which evicts.
	for seed := int64(1); seed <= 10*capacity; seed++ {
		req := &Request{Family: "er-sparse", N: 64, Seed: seed, Partition: PartitionSpec{Kind: "whole"}}
		if _, _, err := svc.Query(req); err != nil {
			t.Fatal(err)
		}
		if got := refsLen(); got > capacity {
			t.Fatalf("after %d distinct references the index holds %d, cache capacity %d", seed, got, capacity)
		}
	}
	// The most recent references still resolve on the fast path.
	for seed := int64(10*capacity - capacity + 1); seed <= 10*capacity; seed++ {
		req := &Request{Family: "er-sparse", N: 64, Seed: seed, Partition: PartitionSpec{Kind: "whole"}}
		rk, _ := req.refKey()
		svc.mu.Lock()
		key, ok := svc.refs[rk]
		svc.mu.Unlock()
		if !ok {
			t.Fatalf("seed %d: reference dropped while its entry is cached", seed)
		}
		if ent, out, err := svc.Query(req); err != nil || out != OutcomeHit || ent.key != key {
			t.Fatalf("seed %d: outcome=%v err=%v", seed, out, err)
		}
	}
	// One structure named by many references (the ring ignores its seed).
	for seed := int64(1); seed <= 10*maxRefsPerEntry; seed++ {
		req := &Request{Family: "ring", N: 16, Seed: seed, Partition: PartitionSpec{Kind: "whole"}}
		if _, _, err := svc.Query(req); err != nil {
			t.Fatal(err)
		}
		if got := refsLen(); got > maxRefsPerEntry*capacity {
			t.Fatalf("after %d references to one structure the index holds %d", seed, got)
		}
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for rk, key := range svc.refs {
		if _, ok := svc.items[key]; !ok {
			t.Errorf("reference %+v points at evicted key %+v", rk, key)
		}
	}
}
