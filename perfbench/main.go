// Command perfbench is the rating service's end-to-end benchmark. It
// builds nothing itself: run.sh builds ratingd and this program from
// the checkout, then runs
//
//	perfbench --workload ingest|read-window|marketplace --seed N --seconds S --trace 0|1
//
// An untraced run (--trace 0) drives a ratingd child process over
// loopback and reports the end-to-end metrics; a traced run (--trace 1)
// assembles the same public components in-process with timing shims
// at each layer's seam and reports per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	code := 1
	defer func() { os.Exit(code) }()
	defer cleanupAll()
	defer func() {
		if v := recover(); v != nil {
			fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n", v)
			code = 2
		}
	}()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping\n", s)
		cleanupAll()
		os.Exit(3)
	}()
	code = realMain(os.Args[1:])
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "ingest | read-window | marketplace")
		seed     = fs.Int64("seed", 1, "workload seed")
		seconds  = fs.Float64("seconds", 10, "length of the timed phase")
		traced   = fs.Int("trace", 0, "1 runs the traced in-process assembly and reports per-layer metrics")
		ratingd  = fs.String("ratingd", filepath.Join(".bench_build", "bin", "ratingd"), "ratingd binary built from this checkout")
		root     = fs.String("root", ".", "checkout root; scratch files go under its .bench_build")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadFlags[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	scratch, err := scratchDir(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec := newRecord(*root, *workload, *seed, *seconds, *traced == 1)

	var res result
	if *traced == 1 {
		res, err = tracedRun(*workload, *seed, *seconds, *root, scratch, rec)
	} else {
		res, err = untracedRun(*workload, *seed, *seconds, *ratingd, scratch, rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		res.Correct = false
		res.Metrics = map[string]metric{}
	}
	rec.Result = res
	rec.save(*root)
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// daemonService runs ratingd as a child process.
type daemonService struct {
	bin    string
	flags  []string
	walDir string
	d      *daemon
}

func (s *daemonService) url() string                  { return s.d.base }
func (s *daemonService) crash()                       { s.d.kill() }
func (s *daemonService) peakRSSMiB() (float64, error) { return s.d.peakRSSMiB() }
func (s *daemonService) restart(walDir string) error {
	d, err := startDaemon(s.bin, s.flags, walDir)
	if err != nil {
		return err
	}
	s.d, s.walDir = d, walDir
	return nil
}

func untracedRun(workload string, seed int64, seconds float64, bin, scratch string, rec *record) (result, error) {
	if _, err := os.Stat(bin); err != nil {
		return result{}, fmt.Errorf("ratingd binary: %w", err)
	}
	flags := daemonFlags(workload)
	launch := func(walDir string) (service, error) {
		d, err := startDaemon(bin, flags, walDir)
		if err != nil {
			return nil, err
		}
		return &daemonService{bin: bin, flags: flags, walDir: walDir, d: d}, nil
	}
	r := newRun(workload, seed, seconds, launch, scratch)
	err := r.execute()
	res := result{Attempted: r.attempted.Load(), Failed: r.failed.Load()}
	rec.note(r)
	if err != nil {
		return res, err
	}
	m, blocks, err := endToEnd(r, true)
	if err != nil {
		return res, err
	}
	rec.TailBlocks = blocks
	res.Correct, res.Metrics = true, m
	return res, nil
}
