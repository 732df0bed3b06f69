package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// endToEnd turns a finished run into the end-to-end metrics, and the
// tail blocks behind them and behind the ungated tails into the run
// record. A tail fails the run when too few samples lie beyond it.
//
// Only the aggregate tail is gated. A submit is a 1 to 3 ms wait on
// fsync and the router's timer and an ingest window a few ms of CPU;
// when the hypervisor steals a few percent of a small virtual
// machine's CPU, their p90 rises by up to 180% over most of a run, not
// in bursts a median of blocks could set aside, and ten seeds spread
// by more than any allowed bound. Their p90 and p99 stay in the record,
// per block and as the median of blocks. No tail is gated at p99: a
// p99 block needs 1000 samples, so a run would hold one or two blocks.
func endToEnd(r *run, gateLate bool) (map[string]metric, map[string][]float64, error) {
	m := map[string]metric{}
	blocks := map[string][]float64{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(r.setup))
	// Rates are the median over the run's rounds.
	put("ingest_ratings_per_s", "ratings/s", median(r.ingestRates))
	put("reads_per_s", "reads/s", median(r.readRates))
	put("recovery_s", "s", r.recovery)
	put("wal_bytes_per_rating", "B", float64(r.walBytes)/float64(r.nAcked))
	put("daemon_peak_rss_mb", "MiB", r.rssMiB)
	put("submit_p50_ms", "ms", median(r.submits.v))
	put("aggregate_p50_ms", "ms", median(r.aggs.v))
	put("window_p50_ms", "ms", median(r.wins.v))
	v, tails, err := r.aggs.blockPercentile(9000)
	if err != nil {
		return nil, nil, err
	}
	put("aggregate_p90_ms", "ms", v)
	blocks["aggregate_p90_ms"] = tails
	for _, e := range []struct {
		name     string
		s        *sampleSet
		p        int
		required bool
	}{
		{"submit_p90_ms", &r.submits, 9000, true}, {"window_p90_ms", &r.wins, 9000, true},
		{"submit_p99_ms", &r.submits, 9900, false}, {"aggregate_p99_ms", &r.aggs, 9900, false},
	} {
		v, tails, err := e.s.blockPercentile(e.p)
		if err != nil {
			if e.required {
				return nil, nil, err
			}
			continue
		}
		blocks[e.name+".ungated"] = tails
		blocks[e.name+".ungated.median"] = []float64{v}
	}
	if openConns.peak > runtime.NumCPU() {
		return nil, nil, fmt.Errorf("%w: the load generator had %d connections open on %d CPUs", errInvalid, openConns.peak, runtime.NumCPU())
	}
	if gateLate && r.name == "marketplace" {
		late, err := r.genLate.percentile(9900)
		if err != nil {
			return nil, nil, err
		}
		if limit := maxLateIntervals * 1000.0 / marketRate; late > limit {
			return nil, nil, fmt.Errorf("%w: generator sent its p99 request %.3f ms late, over %d send intervals (%.1f ms)",
				errInvalid, late, maxLateIntervals, limit)
		}
	}
	for name := range m {
		if !validMetricName(name) {
			return nil, nil, fmt.Errorf("metric name %q", name)
		}
	}
	return m, blocks, nil
}

// maxLateIntervals is how many send intervals late the open-loop
// generator may send its p99 request before the run is invalid: a
// scheduler hiccup on a busy host makes a send an interval late now
// and then, while a generator that cannot keep the schedule falls
// further behind with every send.
const maxLateIntervals = 5

// record is everything a run reports beyond its result line: the host
// fingerprint, the inputs and the sample counts behind each figure. It
// is printed to standard error and saved under .bench_build/results.
type record struct {
	Workload    string               `json:"workload"`
	Seed        int64                `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Traced      bool                 `json:"traced"`
	Host        map[string]string    `json:"host"`
	DaemonFlags []string             `json:"daemon_flags"`
	OfferedRate string               `json:"marketplace_offered_rate"`
	Samples     map[string]int       `json:"samples"`
	TailBlocks  map[string][]float64 `json:"tail_blocks_ms,omitempty"`
	RoundRates  map[string][]float64 `json:"round_rates"`
	Percentiles map[string]string    `json:"tail_percentiles"`
	Counts      map[string]any       `json:"counts"`
	FirstError  string               `json:"first_error,omitempty"`
	TracedE2E   map[string]metric    `json:"traced_end_to_end,omitempty"`
	Untraced    map[string]metric    `json:"untraced_end_to_end,omitempty"`
	Overhead    map[string]float64   `json:"tracing_overhead,omitempty"`
	SpansFile   string               `json:"spans_file,omitempty"`
	Result      result               `json:"result"`
	Started     string               `json:"started"`
	WallSeconds float64              `json:"wall_seconds"`
	// StealShare is the share of the host's CPU time the hypervisor
	// gave to other machines during the run; runs with a high share
	// are noisy.
	StealShare float64 `json:"cpu_steal_share"`
	ticks0     [2]uint64
}

func newRecord(root, workload string, seed int64, seconds float64, traced bool) *record {
	rec := &record{
		Workload:    workload,
		Seed:        seed,
		Seconds:     seconds,
		Traced:      traced,
		Host:        hostFingerprint(root),
		DaemonFlags: append(daemonFlags(workload), "-addr", "127.0.0.1:<free port>", "-wal", "<fresh dir>"),
		OfferedRate: fmt.Sprintf("%d submits/s of %d ratings (%d ratings/s)", marketRate, marketChunk, marketRate*marketChunk),
		Started:     time.Now().UTC().Format(time.RFC3339),
	}
	rec.ticks0[0], rec.ticks0[1] = cpuTicks()
	return rec
}

// note copies a run's sample counts into the record.
func (rec *record) note(r *run) {
	rec.RoundRates = map[string][]float64{"ingest_ratings_per_s": r.ingestRates, "reads_per_s": r.readRates}
	rec.Samples = map[string]int{
		"setup": len(r.setup), "submit": len(r.submits.v), "aggregate": len(r.aggs.v),
		"window": len(r.wins.v), "gen.late": len(r.genLate.v),
	}
	rec.Percentiles = map[string]string{}
	for name, n := range rec.Samples {
		if p, ok := tailPercentile(n); ok {
			rec.Percentiles[name] = fmt.Sprintf("p%g", float64(p)/100)
		}
	}
	failed := r.failed.Load()
	attempted := r.attempted.Load()
	ratio := 0.0
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	rec.Counts = map[string]any{
		"acked_ratings": r.nAcked, "windows_posted": r.nWindows,
		"reads": r.readsN, "attempted_ops": attempted, "failed_ops": failed,
		"failed_ops_ratio": ratio, "wal_bytes": r.walBytes,
		"gen_late_ms_p99": nearestRank(r.genLate.v, 9900), "peak_open_connections": openConns.peak,
	}
	if r.firstErr != nil {
		rec.FirstError = r.firstErr.Error()
	}
}

func (rec *record) save(root string) {
	rec.StealShare = stealShare(rec.ticks0[0], rec.ticks0[1])
	if t, err := time.Parse(time.RFC3339, rec.Started); err == nil {
		rec.WallSeconds = time.Since(t).Seconds()
	}
	b, _ := json.MarshalIndent(rec, "", "  ")
	fmt.Fprintln(os.Stderr, string(b))
	dir := filepath.Join(root, ".bench_build", "results")
	if os.MkdirAll(dir, 0o755) != nil {
		return
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", rec.Workload, rec.Seed, rec.Traced)
	os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// loadUntraced reads the saved untraced result for the same workload
// and seed, if one exists, so a traced run can report both side by
// side.
func loadUntraced(root, workload string, seed int64) map[string]metric {
	b, err := os.ReadFile(filepath.Join(root, ".bench_build", "results", fmt.Sprintf("%s-seed%d-tracefalse.json", workload, seed)))
	if err != nil {
		return nil
	}
	var rec record
	if json.Unmarshal(b, &rec) != nil {
		return nil
	}
	return rec.Result.Metrics
}

// cpuTicks reads the aggregate CPU line of /proc/stat: the total of
// all fields and the steal field (time the hypervisor gave this
// machine's CPUs to others).
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fs := strings.Fields(line)
	for i, f := range fs[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealShare is the share of CPU time stolen by the hypervisor since
// the given cpuTicks reading.
func stealShare(total0, steal0 uint64) float64 {
	total, steal := cpuTicks()
	if total <= total0 {
		return 0
	}
	return float64(steal-steal0) / float64(total-total0)
}

// hostFingerprint records what the figures were measured on.
func hostFingerprint(root string) map[string]string {
	h := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu":        "unknown",
		"kernel":     "unknown",
		"commit":     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h["kernel"] = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h["commit"] = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
		h["dirty"] = fmt.Sprint(len(out) > 0)
	}
	return h
}
