package main

import (
	"math"
	"sync"
	"testing"
)

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "child", Start: 10, End: 60},
		{ID: 3, Parent: 2, Req: 1, Name: "grandchild", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	want := map[uint64]float64{1: 50, 2: 40, 3: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 30, End: 70},
		// Runs past its parent's end: clipped to [90, 100).
		{ID: 4, Parent: 1, Req: 1, Name: "late", Start: 90, End: 130},
	}
	self := selfTimes(spans)
	// The root covers what no child does: [0,10) [70,90).
	want := map[uint64]float64{1: 30, 2: 30, 3: 30, 4: 10}
	sum := 0.0
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-9 {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
		sum += self[id]
	}
	if sum != 100 {
		t.Errorf("self times add up to %v, want the root's 100", sum)
	}
}

func TestSelfTimeSeparateTrees(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "r1", Start: 0, End: 10},
		{ID: 2, Req: 2, Name: "r2", Start: 5, End: 15},
		{ID: 3, Parent: 2, Req: 2, Name: "c2", Start: 6, End: 8},
	}
	self := selfTimes(spans)
	if self[1] != 10 || self[2] != 8 || self[3] != 2 {
		t.Errorf("self = %v", self)
	}
}

func TestTracerNestsByGoroutine(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	child := tr.begin("child")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // started inside root: its spans belong to the request
		defer wg.Done()
		tr.begin("spawned").end(0)
	}()
	wg.Wait()
	child.end(0)
	root.end(0)
	byName := map[string]span{}
	for _, s := range tr.all() {
		byName[s.Name] = s
	}
	if byName["child"].Parent != byName["root"].ID || byName["spawned"].Parent != byName["child"].ID {
		t.Fatalf("parents: %+v", byName)
	}
	if byName["spawned"].Req != byName["root"].ID {
		t.Fatalf("spawned span has request %d, want %d", byName["spawned"].Req, byName["root"].ID)
	}
}

func TestChargeFlushesSplitsByRatings(t *testing.T) {
	// Two requests wait in ack_wait while one flush carrying 3 of the
	// first's ratings and 1 of the second's runs on a router worker.
	spans := []span{
		{ID: 1, Req: 1, Name: "server.submit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "shard.router.ack_wait", Start: 10, End: 100},
		{ID: 3, Req: 3, Name: "server.submit", Start: 0, End: 100},
		{ID: 4, Parent: 3, Req: 3, Name: "shard.router.ack_wait", Start: 50, End: 100},
		{ID: 5, Req: 5, Name: "shard.router.flush", Start: 60, End: 100, N: 4},
		{ID: 6, Parent: 5, Req: 5, Name: "wal.commit", Start: 60, End: 100},
	}
	byID := map[uint64]*span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	self := selfTimes(spans)
	layer := map[string]float64{"server": (10 + 50) / 1e6, "shard": (90 + 50) / 1e6}
	got := chargeFlushes(spans, self, byID, map[uint64]map[uint64]int{5: {1: 3, 3: 1}}, layer)
	if got != 1 {
		t.Errorf("flush share charged = %v, want 1", got)
	}
	// 40 ns of commit: 30 to the first request, 10 to the second.
	if math.Abs(layer["wal"]*1e6-40) > 1e-9 || math.Abs(layer["shard"]*1e6-100) > 1e-9 {
		t.Errorf("layers = %v", layer)
	}
}

func TestChargeFlushesCapsAtWait(t *testing.T) {
	// The request waited 10 ns but two shards' flushes of 40 ns each
	// carried its ratings at once: only its 10 ns of wait is charged.
	spans := []span{
		{ID: 1, Req: 1, Name: "server.submit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "shard.router.ack_wait", Start: 90, End: 100},
		{ID: 3, Req: 3, Name: "shard.router.flush", Start: 60, End: 100, N: 1},
		{ID: 4, Req: 4, Name: "shard.router.flush", Start: 60, End: 100, N: 1},
	}
	byID := map[uint64]*span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	layer := map[string]float64{"server": 90 / 1e6, "shard": 10 / 1e6}
	got := chargeFlushes(spans, selfTimes(spans), byID, map[uint64]map[uint64]int{3: {1: 1}, 4: {1: 1}}, layer)
	if math.Abs(got-10.0/80) > 1e-12 {
		t.Errorf("flush share charged = %v, want %v", got, 10.0/80)
	}
	if math.Abs(layer["shard"]*1e6-10) > 1e-9 {
		t.Errorf("shard layer = %v ns, want 10", layer["shard"]*1e6)
	}
}
