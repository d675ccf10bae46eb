package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

func TestGenOpsDeterministic(t *testing.T) {
	for _, w := range []string{"screen", "campaign", "daemon", "fleet"} {
		a, b := genOps(w, 42, 3), genOps(w, 42, 3)
		if !reflect.DeepEqual(a, b) || opsDigest(a) != opsDigest(b) {
			t.Errorf("%s: seed 42 produced two different op lists", w)
		}
		if c := genOps(w, 43, 3); opsDigest(c) == opsDigest(a) {
			t.Errorf("%s: seeds 42 and 43 produced the same op list", w)
		}
	}
}

func TestGenOpsIsWholePassesOfOneMultiset(t *testing.T) {
	for _, w := range []string{"screen", "campaign", "daemon"} {
		pass := passSet(w)
		want := keys(pass)
		for _, seed := range []int64{1, 2, 9001} {
			ops := genOps(w, seed, 2)
			if len(ops) != 2*len(pass) {
				t.Fatalf("%s: %d ops, want %d", w, len(ops), 2*len(pass))
			}
			for i := 0; i < 2; i++ {
				if got := keys(ops[i*len(pass) : (i+1)*len(pass)]); !reflect.DeepEqual(got, want) {
					t.Errorf("%s seed %d pass %d is not a permutation of the pass set", w, seed, i)
				}
			}
		}
	}
}

func keys(ops []Op) []string {
	var out []string
	for _, op := range ops {
		raw, _ := json.Marshal(op)
		out = append(out, string(raw))
	}
	sort.Strings(out)
	return out
}

func TestDaemonMix(t *testing.T) {
	pass := passSet("daemon")
	variants, strategies := 0, map[string]int{}
	for _, op := range pass {
		if op.config() != "base" {
			variants++
		}
		strategies[op.strategy()]++
		if op.Structure == "" {
			t.Errorf("daemon op %+v is a batch; fleet shards single structures only", op)
		}
	}
	if share := float64(variants) / float64(len(pass)); share < 0.1 || share > 0.15 {
		t.Errorf("%d of %d requests use a non-baseline configuration; want about 1 in 8", variants, len(pass))
	}
	for _, s := range []string{"replay", "checkpointed", "forked"} {
		if strategies[s] == 0 {
			t.Errorf("no %s requests", s)
		}
	}
}

// TestPinsCoverEveryInput keeps pins.json in step with the generators.
func TestPinsCoverEveryInput(t *testing.T) {
	c, err := newChecker(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"screen", "campaign", "daemon"} {
		for _, op := range passSet(w) {
			if _, ok := c.pins[op.pinKey()]; !ok {
				t.Errorf("no pin for %s", op.pinKey())
			}
		}
	}
}

// TestBenchmarkJSONMatchesLayerSpecs keeps the repository's
// BENCHMARK.json per_layer list in step with the metrics the traced run
// prints.
func TestBenchmarkJSONMatchesLayerSpecs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerSpecs) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(spec.PerLayer), len(layerSpecs))
	}
	for i, l := range layerSpecs {
		if p := spec.PerLayer[i]; p.Name != l.name || p.Unit != l.unit || p.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %+v", i, p, l)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := nominalPassSeconds[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not know", w.Name)
		}
	}
}
