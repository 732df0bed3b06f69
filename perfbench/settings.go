package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/trust"
)

// commonFlags are the ratingd settings every workload runs with. They
// are ratingd's defaults, passed explicitly so that the oracle and the
// traced assembly are built from the same values the daemon runs with.
var commonFlags = []string{
	"-threshold", "0.1", "-width", "10", "-step", "5", "-order", "4", "-b", "1", "-forget", "1",
	"-batch", "256", "-batch-interval", "2ms",
	"-stream-window", "50", "-stream-step", "25", "-alert-threshold", "0.5",
	"-fsync", "always", "-wal-segment-bytes", "4194304", "-snap-every", "0",
	"-max-body-bytes", "8388608", "-request-timeout", "30s", "-read-cache", "0", "-stream-batch", "512",
}

// workloadFlags are the per-workload daemon flags (plus -addr and
// -wal, which the launcher adds).
var workloadFlags = map[string][]string{
	"ingest":      {"-shards", "2", "-stream-detect=false"},
	"read-window": {"-shards", "1", "-stream-detect=false"},
	"marketplace": {"-shards", "2", "-stream-detect=true"},
}

// daemonFlags is the full ratingd command line of a workload, less
// -addr and -wal.
func daemonFlags(workload string) []string {
	return append(append([]string(nil), commonFlags...), workloadFlags[workload]...)
}

// settings are the values a workload's daemon flags select.
type settings struct {
	threshold, width, step, b, forget float64
	order                             int

	shards        int
	batch         int
	batchInterval time.Duration

	streamDetect             bool
	streamWindow, streamStep int
	alertThreshold           float64

	fsync        string
	segmentBytes int64
	snapEvery    time.Duration

	maxBody     int64
	reqTimeout  time.Duration
	readCache   int
	streamBatch int
}

// parseSettings reads a daemon command line with ratingd's flag names.
// Every flag must be given: a setting left to a default here could
// differ from ratingd's.
func parseSettings(args []string) (settings, error) {
	var s settings
	fs := flag.NewFlagSet("ratingd", flag.ContinueOnError)
	fs.Float64Var(&s.threshold, "threshold", 0, "")
	fs.Float64Var(&s.width, "width", 0, "")
	fs.Float64Var(&s.step, "step", 0, "")
	fs.IntVar(&s.order, "order", 0, "")
	fs.Float64Var(&s.b, "b", 0, "")
	fs.Float64Var(&s.forget, "forget", 0, "")
	fs.IntVar(&s.shards, "shards", 0, "")
	fs.IntVar(&s.batch, "batch", 0, "")
	fs.DurationVar(&s.batchInterval, "batch-interval", 0, "")
	fs.BoolVar(&s.streamDetect, "stream-detect", false, "")
	fs.IntVar(&s.streamWindow, "stream-window", 0, "")
	fs.IntVar(&s.streamStep, "stream-step", 0, "")
	fs.Float64Var(&s.alertThreshold, "alert-threshold", 0, "")
	fs.StringVar(&s.fsync, "fsync", "", "")
	fs.Int64Var(&s.segmentBytes, "wal-segment-bytes", 0, "")
	fs.DurationVar(&s.snapEvery, "snap-every", 0, "")
	fs.Int64Var(&s.maxBody, "max-body-bytes", 0, "")
	fs.DurationVar(&s.reqTimeout, "request-timeout", 0, "")
	fs.IntVar(&s.readCache, "read-cache", 0, "")
	fs.IntVar(&s.streamBatch, "stream-batch", 0, "")
	if err := fs.Parse(args); err != nil {
		return s, err
	}
	if fs.NArg() > 0 {
		return s, fmt.Errorf("daemon flags: unexpected %q", fs.Args())
	}
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	var missing error
	fs.VisitAll(func(f *flag.Flag) {
		if !given[f.Name] && missing == nil {
			missing = fmt.Errorf("daemon flags: -%s is not given", f.Name)
		}
	})
	return s, missing
}

// workloadSettings returns the settings of a known workload's flags.
func workloadSettings(workload string) settings {
	s, err := parseSettings(daemonFlags(workload))
	if err != nil {
		panic(err)
	}
	return s
}

// coreConfig is the core configuration the settings select, with
// core's default filter and aggregator.
func (s settings) coreConfig() core.Config {
	return core.Config{
		Detector: detector.Config{Width: s.width, TimeStep: s.step, Order: s.order, Threshold: s.threshold},
		Trust:    trust.ManagerConfig{B: s.b, Forgetting: s.forget},
	}
}

// streamDetector is the streaming detector configuration ratingd
// builds from the settings.
func (s settings) streamDetector() detector.Config {
	return detector.Config{Size: s.streamWindow, Step: s.streamStep, Order: s.order, Threshold: s.threshold}
}
