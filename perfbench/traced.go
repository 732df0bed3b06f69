package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/parallel"
	"repro/internal/rating"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/trust"
	"repro/internal/wal"
)

// The traced run assembles the components ratingd wires together —
// server, journal, shard router and engine or core.SafeSystem, WAL,
// and the core.Config filter and aggregator — in this process, with a
// timing shim at each public seam, and drives it over loopback with
// the same phases as the untraced run. The journal mirrors ratingd's
// (cmd/ratingd/journal.go, shardjournal.go); the per-shard WAL layout
// is simplified to one directory per shard, since the daemon's
// manifest and epoch migration are not on any timed path.

// probe accumulates the counts the shims record outside spans.
type probe struct {
	mu sync.Mutex
	// flush batches per shard, in flush order, for the store replay.
	batches [][][]rating.Rating
	// accepted sets of each window's filter passes, for the AR replay.
	windows []*windowCapture

	filterWindowIn, filterWindowRejected atomic.Int64
	filterAggIn, filterAggRejected       atomic.Int64
	aggregatorCalls                      atomic.Int64
	syncMS                               []float64
	walOpen, recoverSecs                 float64

	// pending maps each rating submitted through the router to the
	// requests that submitted it, oldest first. A flush claims the
	// ratings it carries, so flushReqs can tell, for each flush span,
	// how many of its ratings each request contributed.
	pending   map[rating.Rating][]uint64
	flushReqs map[uint64]map[uint64]int
}

// submitted records that the request of span sp submitted rs.
func (p *probe) submitted(sp *openSpan, rs []rating.Rating) {
	if sp == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pending == nil {
		p.pending = make(map[rating.Rating][]uint64)
	}
	for _, r := range rs {
		p.pending[r] = append(p.pending[r], sp.s.Req)
	}
}

// flushed claims the ratings of the flush span sp for the requests
// that submitted them.
func (p *probe) flushed(sp *openSpan, rs []rating.Rating) {
	if sp == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	by := make(map[uint64]int)
	for _, r := range rs {
		q := p.pending[r]
		if len(q) == 0 {
			continue
		}
		by[q[0]]++
		if len(q) == 1 {
			delete(p.pending, r)
		} else {
			p.pending[r] = q[1:]
		}
	}
	if p.flushReqs == nil {
		p.flushReqs = make(map[uint64]map[uint64]int)
	}
	p.flushReqs[sp.s.ID] = by
}

// windowCapture is one maintenance window's accepted sets and the
// engine span that ran it.
type windowCapture struct {
	start, end float64
	spanID     uint64
	accepted   [][]rating.Rating
}

// tracedFilter times core.Config.Filter, split by caller.
type tracedFilter struct {
	inner filter.Filter
	t     *tracer
	p     *probe
	cur   *atomic.Pointer[windowCapture]
}

func (f tracedFilter) Name() string { return f.inner.Name() }

// callerIsWindowScan reports whether the filter runs inside a
// maintenance window's per-object scan (rather than an aggregate).
func callerIsWindowScan() bool {
	pcs := make([]uintptr, 16)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(3, pcs)])
	for {
		fr, more := frames.Next()
		if strings.HasSuffix(fr.Function, ".ScanObject") {
			return true
		}
		if strings.HasSuffix(fr.Function, ".AggregateRatings") || !more {
			return false
		}
	}
}

func (f tracedFilter) Apply(rs []rating.Rating) (filter.Result, error) {
	if f.t.off.Load() {
		return f.inner.Apply(rs)
	}
	window := callerIsWindowScan()
	name := "filter.beta.aggregate"
	if window {
		name = "filter.beta.window"
	}
	sp := f.t.begin(name)
	res, err := f.inner.Apply(rs)
	sp.end(len(rs))
	if window {
		f.p.filterWindowIn.Add(int64(len(rs)))
		f.p.filterWindowRejected.Add(int64(len(res.Rejected)))
		if w := f.cur.Load(); w != nil {
			w.accepted = append(w.accepted, append([]rating.Rating(nil), res.Accepted...))
		}
	} else {
		f.p.filterAggIn.Add(int64(len(rs)))
		f.p.filterAggRejected.Add(int64(len(res.Rejected)))
	}
	return res, err
}

// tracedAggregator times core.Config.Aggregator.
type tracedAggregator struct {
	inner trust.Aggregator
	t     *tracer
	p     *probe
}

func (a tracedAggregator) Name() string { return a.inner.Name() }

func (a tracedAggregator) Aggregate(values, trusts []float64) (float64, error) {
	a.p.aggregatorCalls.Add(1)
	sp := a.t.begin("trust.aggregator")
	v, err := a.inner.Aggregate(values, trusts)
	sp.end(len(values))
	return v, err
}

// tracedBackend times the server.Backend seam.
type tracedBackend struct {
	server.Backend
	kind string // "shard.engine" or "core.safe"
	t    *tracer
	p    *probe
	cur  *atomic.Pointer[windowCapture]
}

func (b *tracedBackend) ProcessWindow(start, end float64) (core.ProcessReport, error) {
	sp := b.t.begin(b.kind + ".process_window")
	w := &windowCapture{start: start, end: end}
	if sp != nil {
		w.spanID = sp.s.ID
	}
	b.cur.Store(w)
	rep, err := b.Backend.ProcessWindow(start, end)
	b.cur.Store(nil)
	sp.end(0)
	b.p.mu.Lock()
	b.p.windows = append(b.p.windows, w)
	b.p.mu.Unlock()
	return rep, err
}

func (b *tracedBackend) Aggregate(obj rating.ObjectID) (core.AggregateResult, error) {
	sp := b.t.begin(b.kind + ".aggregate")
	res, err := b.Backend.Aggregate(obj)
	sp.end(0)
	return res, err
}

func (b *tracedBackend) SubmitAll(rs []rating.Rating) error {
	sp := b.t.begin(b.kind + ".submit_all")
	err := b.Backend.SubmitAll(rs)
	sp.end(len(rs))
	return err
}

// tracedShardJournal is ratingd's sharded journal with spans around
// its router, WAL and engine calls.
type tracedShardJournal struct {
	mu      sync.RWMutex
	backend *tracedBackend
	engine  *shard.Engine
	router  *shard.Router
	logs    []*wal.Log
	seq     uint64
	recs    [][]wal.Record
	t       *tracer
	p       *probe
}

func (j *tracedShardJournal) flush(i int, rs []rating.Rating) error {
	sp := j.t.begin("shard.router.flush")
	defer sp.end(len(rs))
	j.p.flushed(sp, rs)
	j.p.mu.Lock()
	j.p.batches[i] = append(j.p.batches[i], append([]rating.Rating(nil), rs...))
	j.p.mu.Unlock()
	j.mu.RLock()
	defer j.mu.RUnlock()
	recs := j.recs[i][:0]
	for _, r := range rs {
		recs = append(recs, wal.RatingRecord(r))
	}
	j.recs[i] = recs
	a := j.t.begin("wal.append")
	token, err := j.logs[i].AppendAllBuffered(recs)
	a.end(len(recs))
	if err != nil {
		return err
	}
	c := j.t.begin("wal.commit")
	err = j.logs[i].Commit(token)
	c.end(len(recs))
	if err != nil {
		return err
	}
	s := j.t.begin("shard.engine.submit_shard")
	err = j.engine.SubmitShard(i, rs)
	s.end(len(rs))
	return err
}

func (j *tracedShardJournal) SubmitAll(rs []rating.Rating) error {
	sp := j.t.begin("shard.router.ack_wait")
	j.p.submitted(sp, rs)
	err := j.router.Submit(rs)
	sp.end(len(rs))
	return err
}

func (j *tracedShardJournal) SubmitAsync(rs []rating.Rating) (func() error, error) {
	sp := j.t.begin("shard.router.enqueue")
	j.p.submitted(sp, rs)
	wait, err := j.router.SubmitAsync(rs)
	sp.end(len(rs))
	if err != nil {
		return nil, err
	}
	n := len(rs)
	return func() error {
		w := j.t.begin("shard.router.ack_wait")
		err := wait()
		w.end(n)
		return err
	}, nil
}

func (j *tracedShardJournal) ProcessWindow(start, end float64) (core.ProcessReport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := wal.BarrierRecord(j.seq, start, end)
	for _, l := range j.logs {
		a := j.t.begin("wal.append")
		err := l.Append(rec)
		a.end(0)
		if err != nil {
			return core.ProcessReport{}, err
		}
	}
	j.seq++
	return j.backend.ProcessWindow(start, end)
}

func (j *tracedShardJournal) Restore(io.Reader) error { return errors.New("restore is not traced") }

func (j *tracedShardJournal) snapshot() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, l := range j.logs {
		i := i
		if err := l.Snapshot(func(w io.Writer) error {
			return shard.WriteShardSnapshot(j.engine, i, j.seq-1, w)
		}); err != nil {
			return err
		}
	}
	return nil
}

// tracedWALJournal is ratingd's single-log journal with spans.
type tracedWALJournal struct {
	mu      sync.Mutex
	log     *wal.Log
	backend *tracedBackend
	t       *tracer
	p       *probe
}

func (j *tracedWALJournal) SubmitAll(rs []rating.Rating) error {
	recs := make([]wal.Record, len(rs))
	for i, r := range rs {
		recs[i] = wal.RatingRecord(r)
	}
	j.p.mu.Lock()
	j.p.batches[0] = append(j.p.batches[0], append([]rating.Rating(nil), rs...))
	j.p.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	a := j.t.begin("wal.append")
	err := j.log.AppendAll(recs)
	a.end(len(recs))
	if err != nil {
		return err
	}
	return j.backend.SubmitAll(rs)
}

func (j *tracedWALJournal) ProcessWindow(start, end float64) (core.ProcessReport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	a := j.t.begin("wal.append")
	err := j.log.Append(wal.ProcessRecord(start, end))
	a.end(0)
	if err != nil {
		return core.ProcessReport{}, err
	}
	return j.backend.ProcessWindow(start, end)
}

func (j *tracedWALJournal) Restore(io.Reader) error { return errors.New("restore is not traced") }

// replayTarget adapts a backend for wal.Replay.
type replayTarget struct{ b server.Backend }

func (t replayTarget) Submit(r rating.Rating) error { return t.b.Submit(r) }
func (t replayTarget) Process(start, end float64) error {
	_, err := t.b.ProcessWindow(start, end)
	return err
}

// tracedService is the in-process assembly behind a loopback listener.
type tracedService struct {
	workload string
	walDir   string
	t        *tracer
	p        *probe
	reg      *telemetry.Registry
	walm     *wal.Metrics

	httpSrv   *http.Server
	addr      string
	closers   []func()
	streaming *shard.Streaming
}

func newTracedService(workload, walDir string, t *tracer, p *probe) (*tracedService, error) {
	reg := telemetry.NewRegistry()
	s := &tracedService{workload: workload, walDir: walDir, t: t, p: p, reg: reg, walm: wal.NewMetrics(reg)}
	return s, s.start()
}

func (s *tracedService) url() string { return "http://" + s.addr }

func (s *tracedService) start() error {
	s.t.off.Store(true)
	defer s.t.off.Store(false)
	var cur atomic.Pointer[windowCapture]
	set := workloadSettings(s.workload)
	if set.fsync != "always" || set.snapEvery != 0 {
		return fmt.Errorf("traced assembly: only -fsync always with -snap-every 0 is supported")
	}
	policy := wal.SyncAlways
	cfg := set.coreConfig()
	// core's default filter and aggregator, behind timing shims.
	cfg.Filter = tracedFilter{inner: filter.Beta{Q: 0.1}, t: s.t, p: s.p, cur: &cur}
	cfg.Aggregator = tracedAggregator{inner: trust.ModifiedWeightedAverage{}, t: s.t, p: s.p}
	cfg.Metrics = core.NewMetrics(s.reg)
	opts := func(dir string) wal.Options {
		return wal.Options{Dir: dir, Policy: policy, SegmentBytes: set.segmentBytes, Metrics: s.walm}
	}
	var journal server.Journal
	var backend *tracedBackend
	s.closers = nil

	if set.shards == 1 && !set.streamDetect {
		sys, err := core.NewSafeSystem(cfg)
		if err != nil {
			return err
		}
		backend = &tracedBackend{Backend: sys, kind: "core.safe", t: s.t, p: s.p, cur: &cur}
		t0 := time.Now()
		log, rec, err := wal.Open(opts(s.walDir))
		if err != nil {
			return err
		}
		s.p.walOpen = time.Since(t0).Seconds()
		t0 = time.Now()
		if rec.Snapshot != nil {
			if err := sys.LoadSnapshot(bytes.NewReader(rec.Snapshot)); err != nil {
				return err
			}
		}
		wal.Replay(replayTarget{sys}, rec.Records, nil)
		s.p.recoverSecs = time.Since(t0).Seconds()
		j := &tracedWALJournal{log: log, backend: backend, t: s.t, p: s.p}
		if err := log.Snapshot(sys.WriteSnapshot); err != nil {
			return err
		}
		s.closers = append(s.closers, func() { log.Close() })
		if s.p.batches == nil {
			s.p.batches = make([][][]rating.Rating, 1)
		}
		journal = j
	} else {
		shards := set.shards
		engine, err := shard.NewEngine(cfg, shards)
		if err != nil {
			return err
		}
		sm := shard.NewMetrics(s.reg, shards)
		engine.SetMetrics(sm)
		backend = &tracedBackend{Backend: engine, kind: "shard.engine", t: s.t, p: s.p, cur: &cur}
		t0 := time.Now()
		type opened struct {
			log *wal.Log
			rec *wal.Recovery
		}
		res, err := parallel.Map(shards, 0, func(i int) (opened, error) {
			l, rec, err := wal.Open(opts(filepath.Join(s.walDir, fmt.Sprintf("shard-%04d", i))))
			return opened{l, rec}, err
		})
		if err != nil {
			return err
		}
		s.p.walOpen = time.Since(t0).Seconds()
		logs := make([]*wal.Log, shards)
		recs := make([]shard.RecoveredShard, shards)
		for i, o := range res {
			logs[i] = o.log
			recs[i] = shard.RecoveredShard{Snapshot: o.rec.Snapshot, Records: o.rec.Records}
		}
		t0 = time.Now()
		stats, err := shard.Recover(engine, recs, nil)
		if err != nil {
			return err
		}
		s.p.recoverSecs = time.Since(t0).Seconds()
		j := &tracedShardJournal{backend: backend, engine: engine, logs: logs, seq: stats.NextSeq,
			recs: make([][]wal.Record, shards), t: s.t, p: s.p}
		if s.p.batches == nil {
			s.p.batches = make([][][]rating.Rating, shards)
		}
		router, err := shard.NewRouter(shard.RouterConfig{
			Shards: shards, BatchSize: set.batch, Interval: set.batchInterval, Flush: j.flush, Metrics: sm,
		})
		if err != nil {
			return err
		}
		j.router = router
		s.closers = append(s.closers, func() { router.Close() })
		if err := j.snapshot(); err != nil {
			return err
		}
		if set.streamDetect {
			st, err := engine.EnableStreaming(shard.StreamConfig{
				Detector:       set.streamDetector(),
				AlertThreshold: set.alertThreshold,
				ResumeAfter:    engine.LastWindowEnd(),
			})
			if err != nil {
				return err
			}
			s.streaming = st
			s.closers = append(s.closers, st.Close)
		}
		s.closers = append(s.closers, func() {
			for _, l := range logs {
				l.Close()
			}
		})
		journal = j
	}

	srv, err := server.NewWith(backend,
		server.WithJournal(journal),
		server.WithMaxBodyBytes(set.maxBody),
		server.WithRequestTimeout(set.reqTimeout),
		server.WithTelemetry(s.reg),
		server.WithReadCache(set.readCache),
		server.WithStreamBatch(set.streamBatch),
	)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.httpSrv = &http.Server{
		Handler:           s.rootHandler(srv),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go s.httpSrv.Serve(ln)
	return nil
}

// statusWriter captures the response status.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// failedRequests counts non-2xx responses of the traced server.
var failedRequests atomic.Int64

// routeName labels a request's root span.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/ratings":
		return "server.submit"
	case p == "/v1/ratings:stream":
		return "server.stream"
	case p == "/v1/process":
		return "server.process"
	case strings.HasSuffix(p, "/aggregate"):
		return "server.aggregate"
	default:
		return "server.other"
	}
}

// rootHandler opens each request's root span around
// server.Server.ServeHTTP.
func (s *tracedService) rootHandler(srv *server.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		sp := s.t.begin(routeName(r))
		srv.ServeHTTP(sw, r)
		sp.end(0)
		if sw.status >= 300 {
			failedRequests.Add(1)
		}
	})
}

// crash drops the assembly without draining or snapshotting, as
// kill -9 would; every acknowledged write is already durable.
func (s *tracedService) crash() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	s.httpSrv.Shutdown(ctx)
	for _, c := range s.closers {
		c()
	}
}

func (s *tracedService) restart(walDir string) error {
	s.walDir = walDir
	return s.start()
}

func (s *tracedService) peakRSSMiB() (float64, error) { return selfPeakRSSMiB() }

// selfPeakRSSMiB reads this process's VmHWM.
func selfPeakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}
