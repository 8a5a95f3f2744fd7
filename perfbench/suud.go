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
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// suudQueue is suud's admission queue depth. Its default, four per
// worker, is four units at GOMAXPROCS=1, so two batch-mixed batches in
// flight (four computed items each) would be rejected with 429s; a queue
// that holds everything the generator's connections can have in flight
// makes overload show as latency, which is what the peak search measures.
const suudQueue = 16

// suud is one running server process.
type suud struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	dir   string // the store directory, removed by stop
	exec  time.Time
	ready time.Time
	log   *os.File
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

// startSuud execs bin with a fresh store directory under workdir and waits
// until /readyz answers 200. Readiness is polled every 100µs, so the poll
// interval does not quantize the measured start-up time.
func startSuud(bin, workdir string, traced bool) (*suud, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	dir, err := os.MkdirTemp(workdir, "suud-store-")
	if err != nil {
		return nil, err
	}
	log, err := os.Create(filepath.Join(dir, "suud.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sample, ring := "0", "0"
	if traced {
		sample = "1"
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-store-dir", filepath.Join(dir, "store"),
		"-fsync", "interval",
		"-queue", strconv.Itoa(suudQueue),
		"-trace-sample", sample, "-trace-ring", ring,
		"-log-level", "warn",
		"-drain", "5s",
	)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// suud must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout, cmd.Stderr = log, log
	s := &suud{cmd: cmd, base: "http://" + addr, dir: dir, log: log}
	s.exec = time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting suud: %w", err)
	}
	if err := s.waitReady(10 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *suud) waitReady(budget time.Duration) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer hc.CloseIdleConnections()
	deadline := s.exec.Add(budget)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Now()
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("suud not ready after %v (log: %s)", budget, s.logTail())
}

func (s *suud) logTail() string {
	b, _ := os.ReadFile(s.log.Name())
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after a
// grace period), and removes its directory.
func (s *suud) stop() error {
	defer os.RemoveAll(s.dir)
	defer s.log.Close()
	if s.cmd.Process == nil {
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-done:
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			return err
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("suud ignored SIGTERM; killed")
	}
}

// cpuTime returns the process's user+system CPU time so far: the sum of
// its threads' run time in /proc/<pid>/task/*/schedstat (nanoseconds; the
// Go runtime does not retire threads).
func (s *suud) cpuTime() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for suud: %v", err)
	}
	var sum time.Duration
	for _, p := range tasks {
		b, err := os.ReadFile(p)
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", p)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// peakRSS returns VmHWM, suud's peak resident set, in MB.
func (s *suud) peakRSS() (float64, error) { return peakRSS(strconv.Itoa(s.cmd.Process.Pid)) }

// peakRSS returns VmHWM of process pid ("self" for this one), in MB.
func peakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// post sends one request and returns the status and body.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header, err
}
