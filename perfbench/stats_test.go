package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 5000, true}, {99, 5000, true},
		{100, 9000, true}, {999, 9000, true}, {1000, 9900, true},
		{9999, 9900, true}, {10000, 9990, true}, {100000, 9999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	s := sampleSet{name: "x"}
	for i := 1; i <= 999; i++ {
		s.add(time.Duration(i) * time.Millisecond)
	}
	if _, err := s.percentile(9900); err == nil {
		t.Fatal("p99 of 999 samples: want an error, 9 lie beyond it")
	}
	if v, err := s.percentile(9000); err != nil || v != 900 {
		t.Fatalf("p90 of 1..999 ms = %v, %v; want 900", v, err)
	}
	s.add(1000 * time.Millisecond)
	v, err := s.percentile(9900)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 ms = %v, %v; want 990", v, err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

// TestMetricNames checks every metric BENCHMARK.json names against the
// charset, and that its per-layer list is the one a traced run reports.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name string }       `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names, layers []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	if !slices.Equal(layers, perLayerNames) {
		t.Errorf("BENCHMARK.json per_layer %v, traced run reports %v", layers, perLayerNames)
	}
	// An untraced run reports exactly the end-to-end metrics, in their
	// units.
	r := newRun("ingest", 1, 1, nil, "")
	for i := 0; i < 1000; i++ {
		d := time.Duration(i+1) * time.Microsecond
		r.submits.add(d)
		r.aggs.add(d)
		r.wins.add(d)
	}
	r.setup, r.ingestRates, r.readRates = []float64{1}, []float64{1}, []float64{1}
	r.recovery, r.walBytes, r.nAcked, r.rssMiB = 1, 1, 1, 1
	got, _, err := endToEnd(r, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spec.EndToEnd) {
		t.Errorf("untraced run reports %d metrics, BENCHMARK.json lists %d", len(got), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("%s: reported %+v, want unit %s", m.Name, g, m.Unit)
		}
	}
	seen := map[string]bool{}
	for _, n := range append(names, layers...) {
		if !validMetricName(n) {
			t.Errorf("%q rejected", n)
		}
		if seen[n] {
			t.Errorf("%q listed twice", n)
		}
		seen[n] = true
	}
	for _, bad := range []string{"", "a b", "-lead", ".lead", "x/y", "p99%", "naïve",
		"a1234567890123456789012345678901234567890123456789012345678901234"} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestBlockPercentile(t *testing.T) {
	s := sampleSet{name: "x"}
	for b := 0; b < 3; b++ {
		for i := 1; i <= 1000; i++ {
			d := time.Duration(i) * time.Millisecond
			if b == 1 && i > 900 { // a burst of slow samples in one block
				d *= 10
			}
			s.add(d)
		}
	}
	v, tails, err := s.blockPercentile(9900)
	if err != nil || v != 990 || len(tails) != 3 || tails[1] != 9900 {
		t.Fatalf("median of block p99s = %v (blocks %v), %v; want 990", v, tails, err)
	}
	short := sampleSet{name: "short", v: make([]float64, 999)}
	if _, _, err := short.blockPercentile(9900); err == nil {
		t.Fatal("999 samples cannot support p99")
	}
}
