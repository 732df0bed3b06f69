package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/detector"
	"repro/internal/rating"
)

// perLayerNames lists every per-layer metric a traced run reports, in
// report order. A layer a workload bypasses reports 0.
var perLayerNames = []string{
	"server.submit.self_ms_p50", "server.stream.self_ns_per_line", "server.failed",
	"server.aggregate.self_ms_p50", "server.readcache.hit_ratio",
	"shard.router.ack_wait_ms_p50", "shard.router.ack_wait_ms_p99", "shard.router.flush_count",
	"shard.router.ratings_per_flush", "shard.router.flush_busy_ms_p50",
	"shard.engine.submit_shard_ns_per_rating", "shard.engine.process_window_ms_p50", "shard.engine.aggregate_ms_p50",
	"rating.store.merge_ns_per_rating", "rating.store.history_len_p50",
	"wal.append_ns_per_rating", "wal.commit_ms_p50", "wal.commit_ms_p99", "wal.ratings_per_fsync",
	"wal.recover_open_s", "shard.recover_s",
	"filter.beta.window_ns_per_rating", "filter.beta.aggregate_ns_per_rating", "filter.beta.reject_ratio",
	"detector.ar_fit_ms_per_window", "core.window.self_ms_p50", "trust.aggregator.calls",
	"shard.stream.late_ratio", "shard.stream.shed_ratio", "shard.stream.sync_ms_p50",
	"gen.late_ms_p99",
	"trace.self_coverage", "trace.flush_attributed",
	"layer.server.self_ms", "layer.shard.self_ms", "layer.rating.self_ms", "layer.wal.self_ms",
	"layer.filter.self_ms", "layer.detector.self_ms", "layer.core.self_ms", "layer.trust.self_ms",
}

// layerModules are the modules a traced run attributes time to.
var layerModules = []string{"server", "shard", "rating", "wal", "filter", "detector", "core", "trust"}

// moduleOf maps a span name to the repository module whose code the
// span's self time is spent in; a backend submit is the rating store's
// merge.
func moduleOf(name string) string {
	for _, prefix := range []string{"server", "wal", "filter", "trust"} {
		if strings.HasPrefix(name, prefix+".") {
			return prefix
		}
	}
	switch {
	case strings.HasSuffix(name, ".submit_all"), name == "shard.engine.submit_shard":
		return "rating"
	case strings.HasSuffix(name, ".process_window"), strings.HasSuffix(name, ".aggregate"):
		// The backend's window and aggregate run core.Pipeline code
		// (charge, fold, trust update, aggregation) around the filter.
		return "core"
	case strings.HasPrefix(name, "shard."):
		return "shard"
	}
	return "other"
}

func tracedRun(workload string, seed int64, seconds float64, root, scratch string, rec *record) (result, error) {
	t := newTracer()
	p := &probe{}
	var last *tracedService
	launch := func(walDir string) (service, error) {
		s, err := newTracedService(workload, walDir, t, p)
		if err != nil {
			return nil, err
		}
		last = s
		return s, nil
	}
	r := newRun(workload, seed, seconds, launch, scratch)
	// Keep only the last set-up (its bulk preload is part of what the
	// trace attributes) and everything after it.
	r.onSetup = func(i int) {
		if i == setupRepeats-1 {
			t.reset()
			*p = probe{}
			failedRequests.Store(0)
		}
	}
	r.afterWindow = func() {
		if last != nil && last.streaming != nil {
			t0 := time.Now()
			last.streaming.Sync()
			p.syncMS = append(p.syncMS, float64(time.Since(t0))/1e6)
		}
	}
	err := r.execute()
	res := result{Attempted: r.attempted.Load(), Failed: r.failed.Load()}
	rec.note(r)
	if err != nil {
		return res, err
	}
	traced, _, err := endToEnd(r, false)
	if err != nil {
		return res, err
	}
	spans := t.all()
	m, err := perLayer(r, spans, p, last)
	if err != nil {
		return res, err
	}
	rec.Traced = true
	rec.TracedE2E = traced
	rec.Untraced = loadUntraced(root, workload, seed)
	rec.Overhead = map[string]float64{}
	for name, v := range traced {
		if u, ok := rec.Untraced[name]; ok && u.Value != 0 {
			rec.Overhead[name] = v.Value/u.Value - 1
		}
	}
	if f, err := os.Create(filepath.Join(scratch, fmt.Sprintf("spans-%s-seed%d.ndjson", workload, seed))); err == nil {
		writeSpans(f, spans)
		f.Close()
		rec.SpansFile = f.Name()
	}
	res.Correct, res.Metrics = true, m
	return res, nil
}

func perLayer(r *run, spans []span, p *probe, svc *tracedService) (map[string]metric, error) {
	self := selfTimes(spans)
	byID := make(map[uint64]*span, len(spans))
	childNames := make(map[uint64][]string)
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for _, s := range spans {
		if s.Parent != 0 {
			childNames[s.Parent] = append(childNames[s.Parent], s.Name)
		}
	}
	type agg struct {
		durMS  []float64
		selfMS []float64
		sumNS  float64
		n      int
		count  int
	}
	by := map[string]*agg{}
	get := func(name string) *agg {
		a := by[name]
		if a == nil {
			a = &agg{}
			by[name] = a
		}
		return a
	}
	// rootSum is the time of every request's root span; layer sums the
	// self time inside request trees by module.
	var rootSum float64
	layer := map[string]float64{}
	reqLines := map[uint64]int{}
	for _, s := range spans {
		a := get(s.Name)
		a.durMS = append(a.durMS, float64(s.dur())/1e6)
		a.selfMS = append(a.selfMS, self[s.ID]/1e6)
		a.sumNS += float64(s.dur())
		a.n += s.N
		a.count++
		if root := byID[s.Req]; root != nil && strings.HasPrefix(root.Name, "server.") {
			layer[moduleOf(s.Name)] += self[s.ID] / 1e6
			if s.ID == s.Req {
				rootSum += float64(s.dur()) / 1e6
			}
		}
		if s.Name == "shard.router.enqueue" || s.Name == "core.safe.submit_all" {
			reqLines[s.Req] += s.N
		}
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	put("server.submit.self_ms_p50", "ms", nearestRank(get("server.submit").selfMS, 5000))
	var streamSelf float64
	lines := 0
	for _, s := range spans {
		if s.Name == "server.stream" {
			streamSelf += self[s.ID]
			lines += reqLines[s.Req]
		}
	}
	put("server.stream.self_ns_per_line", "ns", ratio(streamSelf, float64(lines)))
	put("server.failed", "count", float64(failedRequests.Load()))
	put("server.aggregate.self_ms_p50", "ms", nearestRank(get("server.aggregate").selfMS, 5000))
	hits, reads := 0, 0
	for _, s := range spans {
		if s.Name != "server.aggregate" {
			continue
		}
		reads++
		reached := false
		for _, c := range childNames[s.ID] {
			if strings.HasSuffix(c, ".aggregate") {
				reached = true
			}
		}
		if !reached {
			hits++
		}
	}
	put("server.readcache.hit_ratio", "ratio", ratio(float64(hits), float64(reads)))

	ack := get("shard.router.ack_wait")
	put("shard.router.ack_wait_ms_p50", "ms", nearestRank(ack.durMS, 5000))
	put("shard.router.ack_wait_ms_p99", "ms", nearestRank(ack.durMS, 9900))
	fl := get("shard.router.flush")
	put("shard.router.flush_count", "count", float64(fl.count))
	put("shard.router.ratings_per_flush", "ratings", ratio(float64(fl.n), float64(fl.count)))
	put("shard.router.flush_busy_ms_p50", "ms", nearestRank(fl.durMS, 5000))

	kind := "shard.engine"
	if r.name == "read-window" {
		kind = "core.safe"
	}
	sub := get("shard.engine.submit_shard")
	if kind == "core.safe" {
		sub = get("core.safe.submit_all")
	}
	put("shard.engine.submit_shard_ns_per_rating", "ns", ratio(sub.sumNS, float64(sub.n)))
	win := get(kind + ".process_window")
	put("shard.engine.process_window_ms_p50", "ms", nearestRank(win.durMS, 5000))
	put("shard.engine.aggregate_ms_p50", "ms", nearestRank(get(kind+".aggregate").durMS, 5000))

	// Store merge: replay the captured batches into fresh stores.
	var mergeNS float64
	merged := 0
	var lens []float64
	for _, batches := range p.batches {
		st := rating.NewStore()
		t0 := time.Now()
		for _, b := range batches {
			st.AddBatchValidated(b)
			merged += len(b)
		}
		mergeNS += float64(time.Since(t0))
		for _, obj := range st.Objects() {
			rs, _ := st.ForObject(obj)
			lens = append(lens, float64(len(rs)))
		}
	}
	put("rating.store.merge_ns_per_rating", "ns", ratio(mergeNS, float64(merged)))
	put("rating.store.history_len_p50", "ratings", nearestRank(lens, 5000))

	var appendNS float64
	appended := 0
	var commitMS []float64
	for _, s := range spans {
		if s.Name == "wal.append" && s.N > 0 {
			appendNS += float64(s.dur())
			appended += s.N
			if kind == "core.safe" { // AppendAll commits as it appends
				commitMS = append(commitMS, float64(s.dur())/1e6)
			}
		}
		if s.Name == "wal.commit" {
			commitMS = append(commitMS, float64(s.dur())/1e6)
		}
	}
	put("wal.append_ns_per_rating", "ns", ratio(appendNS, float64(appended)))
	put("wal.commit_ms_p50", "ms", nearestRank(commitMS, 5000))
	put("wal.commit_ms_p99", "ms", nearestRank(commitMS, 9900))
	put("wal.ratings_per_fsync", "ratings", ratio(float64(appended), float64(svc.walm.FsyncSeconds.Count())))
	put("wal.recover_open_s", "s", p.walOpen)
	put("shard.recover_s", "s", p.recoverSecs)

	fw, fa := get("filter.beta.window"), get("filter.beta.aggregate")
	put("filter.beta.window_ns_per_rating", "ns", ratio(fw.sumNS, float64(p.filterWindowIn.Load())))
	put("filter.beta.aggregate_ns_per_rating", "ns", ratio(fa.sumNS, float64(p.filterAggIn.Load())))
	put("filter.beta.reject_ratio", "ratio", ratio(float64(p.filterWindowRejected.Load()+p.filterAggRejected.Load()),
		float64(p.filterWindowIn.Load()+p.filterAggIn.Load())))

	// The AR fit has no public seam: time detector.DetectWS on the
	// accepted sets each window's filter passes produced.
	dcfg := workloadSettings(r.name).coreConfig().Detector
	dcfg.Mode = detector.WindowByTime
	ws := detector.NewWorkspace()
	var fitTotal float64
	var coreSelf []float64
	for _, w := range p.windows {
		c := dcfg
		c.T0, c.End = w.start, w.end
		t0 := time.Now()
		for _, acc := range w.accepted {
			detector.DetectWS(acc, c, ws)
		}
		fit := float64(time.Since(t0)) / 1e6
		fitTotal += fit
		coreSelf = append(coreSelf, self[w.spanID]/1e6-fit)
	}
	put("detector.ar_fit_ms_per_window", "ms", ratio(fitTotal, float64(len(p.windows))))
	put("core.window.self_ms_p50", "ms", nearestRank(coreSelf, 5000))
	put("trust.aggregator.calls", "count", float64(p.aggregatorCalls.Load()))

	var late, shed, pushed float64
	if svc.streaming != nil {
		st := svc.streaming.Stats()
		late, shed, pushed = float64(st.LateDropped), float64(st.Shed), float64(st.Pushed)
	}
	put("shard.stream.late_ratio", "ratio", ratio(late, pushed))
	put("shard.stream.shed_ratio", "ratio", ratio(shed, pushed))
	put("shard.stream.sync_ms_p50", "ms", nearestRank(p.syncMS, 5000))
	put("gen.late_ms_p99", "ms", nearestRank(r.genLate.v, 9900))

	put("trace.flush_attributed", "ratio", chargeFlushes(spans, self, byID, p.flushReqs, layer))
	// The AR fit runs inside the backend's window span; move its
	// replayed time from the backend's layer to the detector's.
	layer["detector"] = fitTotal
	layer["core"] -= fitTotal
	// Every instant of every request must land in exactly one of the
	// named layers: time in a span no layer claims, or a layer charged
	// more than it held, shows here.
	var layerSum float64
	for _, mod := range layerModules {
		if layer[mod] < -1e-9 {
			return nil, fmt.Errorf("layer %s self time is negative (%g ms)", mod, layer[mod])
		}
		layerSum += layer[mod]
		put("layer."+mod+".self_ms", "ms", layer[mod])
	}
	coverage := ratio(layerSum, rootSum)
	if math.Abs(coverage-1) > 1e-6 {
		return nil, fmt.Errorf("the layers' self times add up to %g of the requests' time", coverage)
	}
	put("trace.self_coverage", "ratio", coverage)

	for _, name := range perLayerNames {
		if _, ok := m[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s not computed", name)
		}
		if !validMetricName(name) {
			return nil, fmt.Errorf("metric name %q", name)
		}
	}
	if len(m) != len(perLayerNames) {
		return nil, fmt.Errorf("%d per-layer metrics computed, %d listed", len(m), len(perLayerNames))
	}
	return m, nil
}

// chargeFlushes moves router flush time into the requests it served.
// Flushes run on the router's workers, outside any request's tree,
// while the requests whose ratings they carry wait in
// shard.router.ack_wait. Each flush tree's self time is charged, module
// by module, to those requests in proportion to the ratings each
// contributed, and taken out of the shard layer (their ack_wait). Where
// flushes on two shards ran at once, a request can be charged more than
// it waited; its charge is then scaled down to its wait. It returns the
// share of all flush time so charged.
func chargeFlushes(spans []span, self map[uint64]float64, byID map[uint64]*span,
	flushReqs map[uint64]map[uint64]int, layer map[string]float64) float64 {
	flushMod := make(map[uint64]map[string]float64) // flush root → module → ns
	waited := make(map[uint64]float64)              // request → ack_wait self ns
	for _, s := range spans {
		if s.Name == "shard.router.ack_wait" {
			waited[s.Req] += self[s.ID]
		}
		root := byID[s.Req]
		if root == nil || root.Name != "shard.router.flush" {
			continue
		}
		if flushMod[root.ID] == nil {
			flushMod[root.ID] = make(map[string]float64)
		}
		flushMod[root.ID][moduleOf(s.Name)] += self[s.ID]
	}
	charge := make(map[uint64]map[string]float64) // request → module → ns
	var flushTotal float64
	for id, mods := range flushMod {
		f := byID[id]
		flushTotal += float64(f.dur())
		for req, n := range flushReqs[id] {
			if root := byID[req]; root == nil || !strings.HasPrefix(root.Name, "server.") || f.N == 0 {
				continue
			}
			if charge[req] == nil {
				charge[req] = make(map[string]float64)
			}
			share := float64(n) / float64(f.N)
			for mod, ns := range mods {
				charge[req][mod] += share * ns
			}
		}
	}
	var charged float64
	for req, mods := range charge {
		want := 0.0
		for _, ns := range mods {
			want += ns
		}
		scale := 1.0
		if want > waited[req] {
			scale = waited[req] / want
		}
		for mod, ns := range mods {
			layer[mod] += scale * ns / 1e6
		}
		layer["shard"] -= scale * want / 1e6
		charged += scale * want
	}
	if flushTotal == 0 {
		return 0
	}
	return charged / flushTotal
}
