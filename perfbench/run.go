package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/randx"
	"repro/internal/rating"
)

// service is one running rating service the phases drive over HTTP:
// the ratingd child process in an untraced run, the in-process
// assembly in a traced one.
type service interface {
	url() string
	// crash stops the service abruptly, as kill -9 does.
	crash()
	// restart starts it again on the WAL in walDir and returns once it
	// serves.
	restart(walDir string) error
	peakRSSMiB() (float64, error)
}

// launcher starts a fresh service on an empty WAL directory.
type launcher func(walDir string) (service, error)

// Set-up and recovery are single events per service; a run repeats
// them and reports the median. Recovery repeats at least
// minRecoveries times and, while the restarts so far took less than
// recoverySpan in all, up to maxRecoveries times.
const (
	setupRepeats  = 7
	minRecoveries = 3
	maxRecoveries = 7
	recoverySpan  = 8 * time.Second
)

// run holds one workload run's inputs and measurements.
type run struct {
	name    string
	seed    int64
	seconds float64
	launch  launcher
	scratch string

	svc    service
	walDir string

	setup               []float64
	submits, aggs, wins sampleSet
	genLate             sampleSet
	ingestRates         []float64 // ratings/s, one per round
	readRates           []float64 // reads/s, one per round
	readsN              int
	recovery            float64
	rssMiB              float64
	walBytes            int64
	attempted, failed   atomic.Int64
	// events lists every acknowledged rating batch and every completed
	// window in the order the service acknowledged them.
	eventsMu sync.Mutex
	events   []event
	nAcked   int
	nWindows int
	// Hooks for the traced run: onSetup runs before each set-up
	// repeat, afterWindow after each marketplace window.
	onSetup     func(i int)
	afterWindow func()

	firstErr error
	errOnce  sync.Once
}

func newRun(name string, seed int64, seconds float64, launch launcher, scratch string) *run {
	return &run{
		name: name, seed: seed, seconds: seconds, launch: launch, scratch: scratch,
		submits: sampleSet{name: "submit"}, aggs: sampleSet{name: "aggregate"},
		wins: sampleSet{name: "window"}, genLate: sampleSet{name: "gen.late"},
	}
}

// op counts one attempted operation and its failure, keeping the
// first error for the report.
func (r *run) op(err error) bool {
	r.attempted.Add(1)
	if err != nil {
		r.failed.Add(1)
		r.errOnce.Do(func() { r.firstErr = err })
		return false
	}
	return true
}

// event is one acknowledged mutation: a rating batch or a window.
type event struct {
	ratings []rating.Rating
	win     *window
}

func (r *run) ack(rs []rating.Rating) {
	r.eventsMu.Lock()
	r.events = append(r.events, event{ratings: rs})
	r.nAcked += len(rs)
	r.eventsMu.Unlock()
}

func (r *run) windowDone(w window) {
	r.eventsMu.Lock()
	r.events = append(r.events, event{win: &w})
	r.nWindows++
	r.eventsMu.Unlock()
}

// setupService starts the service on a fresh WAL, proves it holds no
// ratings, and preloads the base state over one NDJSON connection. It
// repeats this setupRepeats times, keeping the last service, and
// records each start-to-ready time.
func (r *run) setupService(preload []body) error {
	for i := 0; i < setupRepeats; i++ {
		if r.onSetup != nil {
			r.onSetup(i)
		}
		dir, err := os.MkdirTemp(r.scratch, r.name+"-wal-")
		if err != nil {
			return err
		}
		registerDir(dir)
		t0 := time.Now()
		svc, err := r.launch(dir)
		if err != nil {
			return err
		}
		c := newClient(svc.url(), 1)
		st, err := c.stats()
		if err != nil {
			svc.crash()
			return err
		}
		if st.Ratings != 0 {
			svc.crash()
			return fmt.Errorf("fresh service reports %d ratings before setup", st.Ratings)
		}
		for _, b := range preload {
			if !r.op(c.stream(b)) {
				svc.crash()
				return fmt.Errorf("preload: %w", r.firstErr)
			}
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		c.close()
		if i < setupRepeats-1 {
			svc.crash()
			continue
		}
		r.svc, r.walDir = svc, dir
		for _, b := range preload {
			r.ack(b.ratings)
		}
	}
	// Write everything back before the timed phase. No WAL directory is
	// deleted before the run ends: on a file system mounted with online
	// discard, freeing blocks costs later journal commits, which must
	// not be timed fsyncs.
	syscall.Sync()
	return nil
}

// crashAndRecover kills the service and times its restart on the same
// WAL until /healthz passes and every acknowledged rating is present.
// A restart rewrites the log's baseline snapshot, so every restart
// runs on its own copy of the crashed WAL, and the service keeps
// serving from the last one. It first records the WAL size and the
// service's peak RSS.
func (r *run) crashAndRecover() error {
	var err error
	if r.rssMiB, err = r.svc.peakRSSMiB(); err != nil {
		return err
	}
	if r.walBytes, err = dirBytes(r.walDir); err != nil {
		return err
	}
	r.svc.crash()
	crashed := r.walDir
	var times []float64
	var spent time.Duration
	for k := 0; k < maxRecoveries && (k < minRecoveries || spent < recoverySpan); k++ {
		if k > 0 {
			r.svc.crash()
		}
		dir, err := os.MkdirTemp(r.scratch, r.name+"-walcopy-")
		if err != nil {
			return err
		}
		registerDir(dir)
		if err := copyDir(crashed, dir); err != nil {
			return err
		}
		r.walDir = dir
		syscall.Sync()
		t0 := time.Now()
		if err := r.svc.restart(dir); err != nil {
			return fmt.Errorf("restart after crash: %w", err)
		}
		c := newClient(r.svc.url(), 1)
		st, err := c.stats()
		c.close()
		if err != nil {
			return err
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
		if st.Ratings != r.nAcked {
			return fmt.Errorf("after restart the service holds %d ratings, %d were acknowledged", st.Ratings, r.nAcked)
		}
	}
	r.recovery = median(times)
	return nil
}

// copyDir copies the regular files of the tree at src into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// ---- ingest ----

func (r *run) ingest() error {
	rng := randx.New(r.seed)
	base := scrambled(rng, ingestObjects*ingestBasePerObj)
	nRounds := int(r.seconds)
	wins := windowsOver(0, 365, 365.0/float64(nRounds*ingestWindowsPerRound))
	probe := make([]round, nRounds)
	writes := make([]round, nRounds)
	for i := 0; i < nRounds; i++ {
		pr := &probe[i]
		pr.wins = wins[i*ingestWindowsPerRound : (i+1)*ingestWindowsPerRound]
		for range pr.wins {
			pr.reads = append(pr.reads, zipfReads(rng, ingestObjects, ingestReadsPerWindow))
		}
		writes[i].unary = arrayBodies(scrambled(rng, ingestUnaryPerRound*ingestUnaryChunk), ingestUnaryChunk)
		writes[i].streams = streamBodies(scrambled(rng, ingestStreamsPerRound*ingestStreamLines), ingestStreamLines)
	}

	if err := r.setupService(streamBodies(base, 8192)); err != nil {
		return err
	}
	c := newClient(r.svc.url(), 2)
	// Probe, on the base history: windows, each followed by aggregate
	// reads, which the write-only timed phase does not carry. Run
	// before any write, every window and read sees the same history.
	r.execRounds(c, probe)
	// Timed phase: in each round one connection sends unary chunks
	// back to back while the other sends NDJSON bodies.
	r.execRounds(c, writes)
	c.close()
	return r.crashAndRecover()
}

// round is one slice of a timed phase: windows, each followed by its
// aggregate reads, then writes. Every round carries every kind of
// request the workload measures, so a burst of host noise moves a few
// rounds of each figure rather than the whole of one.
type round struct {
	wins  []window
	reads [][]int // per window
	// unary submits are timed on one connection; streams, if any, are
	// sent on the other at the same time.
	unary   []body
	streams []body
}

// execRounds runs the rounds in order. It records each round's read
// rate (reads over the time spent reading) and, for a round that
// writes, its ingest rate: the ratings acknowledged over the whole
// round's time.
func (r *run) execRounds(c *client, rounds []round) {
	for _, rd := range rounds {
		t0 := time.Now()
		reads, readSecs := 0, 0.0
		for i, w := range rd.wins {
			s := time.Now()
			if !r.op(c.process(w)) {
				continue
			}
			r.wins.add(time.Since(s))
			r.windowDone(w)
			n, secs := r.readRound(c, rd.reads[i])
			r.readsN += n
			reads += n
			readSecs += secs
		}
		if reads > 0 {
			r.readRates = append(r.readRates, float64(reads)/readSecs)
		}
		if n := r.writeRound(c, rd.unary, rd.streams); n > 0 {
			r.ingestRates = append(r.ingestRates, float64(n)/time.Since(t0).Seconds())
		}
	}
}

// writeRound sends the unary bodies back to back on one connection,
// timing each, and the stream bodies on the other at the same time. It
// returns the ratings acknowledged.
func (r *run) writeRound(c *client, unary, streams []body) int {
	var wg sync.WaitGroup
	var mu sync.Mutex
	n := 0
	loop := func(bodies []body, send func(body) error, timed bool) {
		defer wg.Done()
		for _, b := range bodies {
			s := time.Now()
			if !r.op(send(b)) {
				continue
			}
			d := time.Since(s)
			mu.Lock()
			if timed {
				r.submits.add(d)
			}
			n += len(b.ratings)
			mu.Unlock()
			r.ack(b.ratings)
		}
	}
	wg.Add(2)
	go loop(unary, c.submit, true)
	go loop(streams, c.stream, false)
	wg.Wait()
	return n
}

// zipfReads draws n Zipf-popular object IDs in 1..objects, with the
// popularity order shuffled by rng.
func zipfReads(rng *randx.Rand, objects, n int) []int {
	z := newZipf(objects, readZipfS)
	perm := rng.Perm(objects)
	out := make([]int, n)
	for i := range out {
		out[i] = 1 + perm[z.draw(rng)]
	}
	return out
}

// readRound issues the reads over two connections, each owning the
// objects of one parity so no two concurrent reads race for the same
// cache entry. It returns the reads completed and the wall time.
func (r *run) readRound(c *client, objs []int) (int, float64) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := 0
	t0 := time.Now()
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for _, obj := range objs {
				if obj%2 != part {
					continue
				}
				s := time.Now()
				_, err := c.aggregate(obj)
				d := time.Since(s)
				if r.op(err) {
					mu.Lock()
					r.aggs.add(d)
					done++
					mu.Unlock()
				}
			}
		}(part)
	}
	wg.Wait()
	return done, time.Since(t0).Seconds()
}

// ---- read-window ----

func (r *run) readWindow() error {
	trace, objs, err := marketplaceTrace(r.seed, readScale, readMonths)
	if err != nil {
		return err
	}
	rng := randx.New(randx.Derive(r.seed, 1))
	wins := windowsOver(0, float64(readMonths*30), readWindowDays)
	reads, submits := int(readsPerRoundSec*r.seconds), int(readSubmitsPerRoundSec*r.seconds)
	rounds := make([]round, len(wins))
	for i, w := range wins {
		rounds[i] = round{
			wins:  []window{w},
			reads: [][]int{zipfObjects(rng, objs, reads)},
			unary: arrayBodies(probeRatings(rng, objs, submits*probeSubmitSize), probeSubmitSize),
		}
	}

	if err := r.setupService(streamBodies(trace, 8192)); err != nil {
		return err
	}
	// Timed phase: each round runs the next window, a fixed set of
	// Zipf-popular reads over two connections and, as a probe of the
	// submit path this workload otherwise leaves idle, a few unary
	// submits.
	c := newClient(r.svc.url(), 2)
	r.execRounds(c, rounds)
	c.close()

	if err := r.crashAndRecover(); err != nil {
		return err
	}
	return r.checkOracle()
}

// zipfObjects draws n Zipf-popular objects from objs.
func zipfObjects(rng *randx.Rand, objs []rating.ObjectID, n int) []int {
	ids := zipfReads(rng, len(objs), n)
	for i, k := range ids {
		ids[i] = int(objs[k-1])
	}
	return ids
}

// probeRatings draws n extra ratings on existing objects.
func probeRatings(rng *randx.Rand, objs []rating.ObjectID, n int) []rating.Rating {
	rs := make([]rating.Rating, n)
	for i := range rs {
		rs[i] = rating.Rating{
			Rater:  rating.RaterID(rng.Intn(800 * readScale)),
			Object: objs[rng.Intn(len(objs))],
			Value:  float64(1+rng.Intn(10)) / 10,
			Time:   rng.Float64() * float64(readMonths*30),
		}
	}
	return rs
}

// ---- marketplace ----

func (r *run) marketplace() error {
	days := float64(marketPreloadDays) + r.seconds*marketRate*marketChunk/marketRatingsPerDay
	trace, _, err := marketplaceTrace(r.seed, marketScale, int(days/30)+2)
	if err != nil {
		return err
	}
	cut := sort.Search(len(trace), func(i int) bool { return trace[i].Time >= marketPreloadDays })
	preload, rest := trace[:cut], trace[cut:]
	chunks := arrayBodies(rest, marketChunk)
	n := min(int(r.seconds*marketRate), len(chunks))
	if n < 1000 {
		return fmt.Errorf("marketplace: %d submits scheduled, p99 needs 1000", n)
	}
	chunks = chunks[:n]
	chunkObjects := make([][]int, n)
	for i, c := range chunks {
		seen := map[rating.ObjectID]bool{}
		for _, rt := range c.ratings {
			if !seen[rt.Object] {
				seen[rt.Object] = true
				chunkObjects[i] = append(chunkObjects[i], int(rt.Object))
			}
		}
	}
	last := chunks[n-1].ratings
	wins := windowsOver(0, last[len(last)-1].Time+1e-9, marketWindowDays)

	if err := r.setupService(streamBodies(preload, 8192)); err != nil {
		return err
	}

	// The writer runs an open loop on its own connection; the reader
	// closed-loop on another. Both transports together stay within two
	// connections.
	wc := newClient(r.svc.url(), 1)
	rc := wc
	if runtime.NumCPU() > 1 {
		rc = newClient(r.svc.url(), 1)
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		ok       = make([]bool, n)
		settled  = make([]bool, n)
		prefix   int // chunks[:prefix] are all settled
		okUpTo   int // chunks[:okUpTo] are all acknowledged
		ingested int
		wdone    bool
	)
	interval := time.Second / time.Duration(marketRate)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		var inflight sync.WaitGroup
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			late := time.Since(due)
			mu.Lock()
			r.genLate.add(late)
			mu.Unlock()
			inflight.Add(1)
			go func(i int, due time.Time) {
				defer inflight.Done()
				err := wc.submit(chunks[i])
				d := time.Since(due)
				good := r.op(err)
				mu.Lock()
				if good {
					r.submits.add(d)
					ok[i] = true
					r.ack(chunks[i].ratings)
					ingested += len(chunks[i].ratings)
				}
				settled[i] = true
				for prefix < n && settled[prefix] {
					if ok[prefix] && okUpTo == prefix {
						okUpTo++
					}
					prefix++
				}
				cond.Broadcast()
				mu.Unlock()
			}(i, due)
		}
		inflight.Wait()
		mu.Lock()
		wdone = true
		cond.Broadcast()
		mu.Unlock()
	}()

	// eligible reports whether every rating before w.End is acked.
	eligible := func(w window) bool {
		if okUpTo == n {
			return true
		}
		return okUpTo < n && chunks[okUpTo].ratings[0].Time >= w.End
	}
	next, lastRead := 0, -1
	for {
		var doWin bool
		var readIdx int
		mu.Lock()
		for {
			doWin = next < len(wins) && eligible(wins[next])
			readIdx = okUpTo - 1
			if doWin || readIdx > lastRead || wdone {
				break
			}
			cond.Wait()
		}
		mu.Unlock()
		if !doWin && readIdx <= lastRead {
			break // the writer is done and nothing is left to read or post
		}
		if doWin {
			w := wins[next]
			next++
			s := time.Now()
			if r.op(rc.process(w)) {
				r.wins.add(time.Since(s))
				r.windowDone(w)
				if r.afterWindow != nil {
					r.afterWindow()
				}
			}
			continue
		}
		// Read every object the newest acknowledged chunk wrote: each
		// read follows a write to its object, so each misses the cache.
		lastRead = readIdx
		for _, obj := range chunkObjects[readIdx] {
			s := time.Now()
			_, err := rc.aggregate(obj)
			d := time.Since(s)
			if r.op(err) {
				r.aggs.add(d)
				r.readsN++
			}
		}
	}
	wg.Wait()
	wc.close()
	rc.close()
	secs := time.Since(start).Seconds()
	r.ingestRates = []float64{float64(ingested) / secs}
	r.readRates = []float64{float64(r.readsN) / secs}
	if next < len(wins) {
		return fmt.Errorf("marketplace: %d of %d windows never became eligible", len(wins)-next, len(wins))
	}

	if err := r.crashAndRecover(); err != nil {
		return err
	}
	return r.checkOracle()
}

// execute runs the named workload end to end.
func (r *run) execute() error {
	var err error
	switch r.name {
	case "ingest":
		err = r.ingest()
	case "read-window":
		err = r.readWindow()
	case "marketplace":
		err = r.marketplace()
	default:
		err = fmt.Errorf("unknown workload %q", r.name)
	}
	if r.svc != nil {
		r.svc.crash()
	}
	return err
}

// scratchDir returns the directory WAL directories are made in,
// first removing any an earlier run left behind when it was killed
// outright.
func scratchDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	stale, _ := filepath.Glob(filepath.Join(dir, "*-wal*"))
	for _, p := range stale {
		os.RemoveAll(p)
	}
	syscall.Sync()
	return dir, nil
}

var errInvalid = errors.New("invalid run")
