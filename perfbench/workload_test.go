package main

import (
	"bytes"
	"testing"

	"repro/internal/randx"
)

func ingestBytes(seed int64) []byte {
	rng := randx.New(seed)
	var b []byte
	for _, bd := range arrayBodies(scrambled(rng, 500), ingestUnaryChunk) {
		b = append(b, bd.data...)
	}
	for _, bd := range streamBodies(scrambled(rng, 500), ingestStreamLines) {
		b = append(b, bd.data...)
	}
	for _, id := range zipfReads(rng, ingestObjects, 100) {
		b = append(b, byte(id))
	}
	return b
}

func marketBytes(t *testing.T, seed int64) []byte {
	rs, _, err := marketplaceTrace(seed, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	return renderNDJSON(rs)
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	if !bytes.Equal(ingestBytes(7), ingestBytes(7)) {
		t.Error("ingest: same seed, different bytes")
	}
	if bytes.Equal(ingestBytes(7), ingestBytes(8)) {
		t.Error("ingest: different seeds, same bytes")
	}
	if !bytes.Equal(marketBytes(t, 7), marketBytes(t, 7)) {
		t.Error("marketplace: same seed, different bytes")
	}
	if bytes.Equal(marketBytes(t, 7), marketBytes(t, 8)) {
		t.Error("marketplace: different seeds, same bytes")
	}
}

func TestWindowsOverCoverRange(t *testing.T) {
	ws := windowsOver(0, 365, 3.65)
	if len(ws) != 100 || ws[0].Start != 0 || ws[99].End != 365 {
		t.Fatalf("%d windows, first %+v, last %+v", len(ws), ws[0], ws[len(ws)-1])
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].Start != ws[i-1].End {
			t.Fatalf("gap between windows %d and %d", i-1, i)
		}
	}
}

func TestWorkloadFlagsParse(t *testing.T) {
	for name := range workloadFlags {
		if _, err := parseSettings(daemonFlags(name)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := parseSettings(commonFlags); err == nil {
		t.Error("flags without -shards parsed")
	}
}
