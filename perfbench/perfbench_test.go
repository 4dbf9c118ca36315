package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"lcshortcut/internal/partition"
	"lcshortcut/internal/scenario"
)

func TestQuantileNearestRank(t *testing.T) {
	ten := func() []float64 { return []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} }
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{ten(), 0.5, 5},
		{ten(), 0.9, 9}, // 0.9·10 is 9.000000000000002 in floating point
		{ten(), 0.91, 10},
		{ten(), 1, 10},
		{ten(), 0.01, 1},
		{[]float64{3, 1, 2, 4}, 0.5, 2}, // lower middle of an even count
		{[]float64{7}, 0.9, 7},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(q=%v) of %d samples = %v, want %v", c.q, len(c.xs), got, c.want)
		}
	}
}

func TestHotStreamIsAFunctionOfTheSeed(t *testing.T) {
	a := hotStream(42, 0, 28, 4096)
	if !reflect.DeepEqual(a, hotStream(42, 0, 28, 4096)) {
		t.Fatal("one seed gave two different request streams")
	}
	if reflect.DeepEqual(a, hotStream(43, 0, 28, 4096)) || reflect.DeepEqual(a, hotStream(42, 1, 28, 4096)) {
		t.Fatal("another seed or client gave the same request stream")
	}
	uploads, top := 0, 0
	for _, q := range a {
		if q.key < 0 || q.key >= 28 {
			t.Fatalf("key %d outside the 28 ranks", q.key)
		}
		if q.upload {
			uploads++
		}
		if q.key == 0 {
			top++
		}
	}
	if share := float64(uploads) / float64(len(a)); share < 0.2 || share > 0.3 {
		t.Errorf("upload share %.3f, want about 1/4", share)
	}
	if share := float64(top) / float64(len(a)); share < 0.2 {
		t.Errorf("rank 0 drew %.3f of the stream; zipf(1.2) over 28 ranks gives it more than 0.2", share)
	}
}

func TestHotKeysKeepTheirRankOrder(t *testing.T) {
	a, err := hotKeys(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hotKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 28 {
		t.Fatalf("%d hot keys, want 28", len(a))
	}
	seen := map[[2]int64]bool{}
	for i := range a {
		if a[i].family != b[i].family || a[i].n != b[i].n {
			t.Errorf("rank %d is %s-n%d under one seed and %s-n%d under another", i, a[i].family, a[i].n, b[i].family, b[i].n)
		}
		if seen[[2]int64{a[i].seed, a[i].pseed}] {
			t.Errorf("rank %d repeats another key's seeds", i)
		}
		seen[[2]int64{a[i].seed, a[i].pseed}] = true
	}
}

func TestColdKeysNeverRepeat(t *testing.T) {
	keys, err := coldKeys(7, coldKeyCount)
	if err != nil {
		t.Fatal(err)
	}
	again, err := coldKeys(7, coldKeyCount)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, again) {
		t.Fatal("one seed gave two different cold key lists")
	}
	seen := map[string]int{}
	for i, k := range keys {
		if j, dup := seen[string(k.refBody)]; dup {
			t.Fatalf("key %d repeats key %d: %s", i, j, k.refBody)
		}
		seen[string(k.refBody)] = i
	}
	// Families that ignore the graph seed build one graph for every key, so
	// the partition alone must tell their keys apart in the service's
	// content-addressed cache. Check that on the first blocks.
	content := map[[2]uint64]int{}
	for i, k := range keys[:56] {
		g := scenario.MustGet(k.family).Build(k.n, k.seed)
		c := [2]uint64{g.Fingerprint(), partition.Voronoi(g, k.parts, k.pseed).Fingerprint()}
		if j, dup := content[c]; dup {
			t.Fatalf("key %d has the content of key %d", i, j)
		}
		content[c] = i
	}
}

func TestColdKeysBalanceEveryBlock(t *testing.T) {
	keys, err := coldKeys(3, 14*4)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		type pair struct {
			family string
			n      int
		}
		seen := map[pair]bool{}
		for _, k := range keys[14*b : 14*(b+1)] {
			seen[pair{k.family, k.n}] = true
		}
		if len(seen) != 14 {
			t.Errorf("block %d holds %d of the 14 family and size pairs", b, len(seen))
		}
	}
}

func TestVariantOfCoversNegativeSeeds(t *testing.T) {
	for _, s := range []int64{-17, -1, 0, 1, 15, 16, 1 << 40} {
		if v := variantOf(s); v < 0 || v >= simVariants {
			t.Errorf("variantOf(%d) = %d", s, v)
		}
	}
}

func TestReferenceCoversEveryVariant(t *testing.T) {
	for v := 0; v < simVariants; v++ {
		want, err := loadReference(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"mst.run", "mincut.run", "bfsproto.run",
			"congest.flood_er-dense", "congest.flood_grid", "congest.flood_grid-lossy"} {
			if st, ok := want[name]; !ok || st.Rounds == 0 {
				t.Errorf("variant %d has no reference for %s", v, name)
			}
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
}
