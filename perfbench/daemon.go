package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The cleanup registry: every daemon started and every scratch
// directory created is released by cleanupAll, which main runs on
// every exit path (return, panic, signal).
var live = struct {
	sync.Mutex
	daemons  map[*daemon]bool
	dirs     []string
	stopping bool // set by cleanupAll: no daemon may start after it
}{daemons: make(map[*daemon]bool)}

func registerDir(dir string) {
	live.Lock()
	live.dirs = append(live.dirs, dir)
	live.Unlock()
}

func cleanupAll() {
	live.Lock()
	live.stopping = true
	ds := make([]*daemon, 0, len(live.daemons))
	for d := range live.daemons {
		ds = append(ds, d)
	}
	dirs := live.dirs
	live.dirs = nil
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
	// Pay for the deletions (online discard) now, not in the next run.
	syscall.Sync()
}

// daemon is one ratingd child process on a loopback port.
type daemon struct {
	bin    string
	args   []string
	walDir string
	port   int
	base   string

	cmd    *exec.Cmd
	done   chan struct{}
	output *bytes.Buffer
	outMu  sync.Mutex
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

type lockedWriter struct {
	mu *sync.Mutex
	b  *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

// startDaemon launches ratingd with flags on a fresh loopback port and
// the given WAL directory, and returns once it serves. It proves that
// the process answering is this child: the child must still be alive
// and must own the listening socket on the port.
func startDaemon(bin string, flags []string, walDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		bin:    bin,
		args:   append(append([]string(nil), flags...), "-addr", "127.0.0.1:"+strconv.Itoa(port), "-wal", walDir),
		walDir: walDir,
		port:   port,
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		done:   make(chan struct{}),
		output: new(bytes.Buffer),
	}
	d.cmd = exec.Command(bin, d.args...)
	w := lockedWriter{&d.outMu, d.output}
	d.cmd.Stdout, d.cmd.Stderr = w, w
	// The child dies with this process even if it is killed outright.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	live.Lock()
	if live.stopping {
		live.Unlock()
		return nil, errors.New("stopping")
	}
	if err := d.cmd.Start(); err != nil {
		live.Unlock()
		return nil, err
	}
	live.daemons[d] = true
	live.Unlock()
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	if err := d.waitReady(60 * time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) alive() bool {
	select {
	case <-d.done:
		return false
	default:
		return true
	}
}

func (d *daemon) log() string {
	d.outMu.Lock()
	defer d.outMu.Unlock()
	return d.output.String()
}

// waitReady polls /healthz until it answers 200 from this child.
func (d *daemon) waitReady(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second, Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if !d.alive() {
			return fmt.Errorf("ratingd exited during start: %s", strings.TrimSpace(d.log()))
		}
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if !d.alive() {
					return fmt.Errorf("ratingd exited during start: %s", strings.TrimSpace(d.log()))
				}
				owns, err := ownsListener(d.cmd.Process.Pid, d.port)
				if err != nil {
					return err
				}
				if !owns {
					return fmt.Errorf("port %d answers but is not served by ratingd pid %d", d.port, d.cmd.Process.Pid)
				}
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("ratingd not ready after %v: %s", limit, strings.TrimSpace(d.log()))
}

// kill sends SIGKILL and reaps the child. Safe to call repeatedly.
func (d *daemon) kill() {
	if d.alive() {
		d.cmd.Process.Signal(syscall.SIGKILL)
	}
	<-d.done
	live.Lock()
	delete(live.daemons, d)
	live.Unlock()
}

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fs := strings.Fields(rest)
			if len(fs) == 2 && fs[1] == "kB" {
				kb, err := strconv.ParseFloat(fs[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("VmHWM not found")
}

// ownsListener reports whether process pid holds the socket listening
// on 127.0.0.1:port: the listening socket's inode, from
// /proc/net/tcp, must be one of the process's open descriptors.
func ownsListener(pid, port int) (bool, error) {
	data, err := os.ReadFile("/proc/net/tcp")
	if err != nil {
		return false, err
	}
	want := fmt.Sprintf(":%04X", port)
	inodes := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n")[1:] {
		fs := strings.Fields(line)
		// fields: sl local rem st tx:rx tr:when retrnsmt uid timeout inode
		if len(fs) < 10 || fs[3] != "0A" || !strings.HasSuffix(fs[1], want) {
			continue
		}
		inodes["socket:["+fs[9]+"]"] = true
	}
	fds, err := os.ReadDir(fmt.Sprintf("/proc/%d/fd", pid))
	if err != nil {
		return false, err
	}
	for _, fd := range fds {
		link, err := os.Readlink(filepath.Join(fmt.Sprintf("/proc/%d/fd", pid), fd.Name()))
		if err == nil && inodes[link] {
			return true, nil
		}
	}
	return false, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
