package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one lcfd child process. It is started on free loopback
// ports, is ready once /metrics answers, and is stopped with SIGINT so
// it prints its exit ledger; a daemon that does not exit in time is
// killed and reported. The child is started with a parent-death signal,
// so no exit path of the benchmark — including being killed — leaves an
// lcfd behind.
type daemon struct {
	cmd          *exec.Cmd
	listen, http string
	client       http.Client

	// output collects the child's standard output and error; it is read
	// only after exited is closed, when the child's writers are done.
	output bytes.Buffer
	exited chan struct{}
	// exitTimeout is how long stop waits after SIGINT before it kills.
	exitTimeout time.Duration
}

const (
	daemonReadyTimeout = 10 * time.Second
	daemonExitTimeout  = 15 * time.Second
)

// freePort asks the kernel for an unused loopback port. The port is
// released before lcfd binds it, so startDaemon retries on a lost race.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func startDaemon(bin string, args ...string) (*daemon, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := startDaemonOnce(bin, args...)
		if err == nil {
			return d, nil
		}
		last = err
	}
	return nil, last
}

func startDaemonOnce(bin string, args ...string) (*daemon, error) {
	listen, err := freePort()
	if err != nil {
		return nil, err
	}
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	d, err := spawn(bin, append([]string{"-listen", listen, "-http", httpAddr}, args...)...)
	if err != nil {
		return nil, err
	}
	d.listen, d.http = listen, httpAddr
	fmt.Fprintf(os.Stderr, "bench: lcfd pid %d on %s\n", d.pid(), listen)

	deadline := time.Now().Add(daemonReadyTimeout)
	for {
		if _, err := d.scrape(); err == nil {
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("lcfd exited during start-up: %s", d.log())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("lcfd not ready after %v: %s", daemonReadyTimeout, d.log())
		}
	}
}

// spawn starts the child and the goroutine that waits for it.
func spawn(bin string, args ...string) (*daemon, error) {
	d := &daemon{exited: make(chan struct{}), exitTimeout: daemonExitTimeout}
	d.client.Timeout = 2 * time.Second
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = &d.output, &d.output
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is not used; the ledger line is
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) log() string { return d.output.String() }

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// lcfdMetrics is the part of lcfd's JSON /metrics document the
// benchmark reads.
type lcfdMetrics struct {
	Engine struct {
		Slot          int64 `json:"slot"`
		Delivered     int64 `json:"delivered"`
		Requested     int64 `json:"requested"`
		Matched       int64 `json:"matched"`
		SlotLatencyNs struct {
			Bounds   []float64 `json:"bounds"`
			Counts   []int64   `json:"counts"`
			Overflow int64     `json:"overflow"`
		} `json:"slot_latency_ns"`
	} `json:"engine"`
	Server struct {
		NacksSent       int64 `json:"nacks_sent"`
		DroppedNoClient int64 `json:"dropped_no_client"`
		ProtocolErrors  int64 `json:"protocol_errors"`
	} `json:"server"`
}

func (d *daemon) scrape() (lcfdMetrics, error) {
	var m lcfdMetrics
	resp, err := d.client.Get("http://" + d.http + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// stop interrupts the daemon, waits for it to drain and exit, and
// returns the ledger line it printed.
func (d *daemon) stop() (ledger, error) {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		d.kill()
		return ledger{}, fmt.Errorf("signal lcfd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(d.exitTimeout):
		d.kill()
		return ledger{}, fmt.Errorf("lcfd did not exit within %v of SIGINT; killed", d.exitTimeout)
	}
	l, ok := parseLedger(d.log())
	if !ok {
		return l, fmt.Errorf("lcfd printed no exit ledger: %s", d.log())
	}
	return l, nil
}

// kill ends the daemon at once and waits until it is gone.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exited
}

// procPeakMB reads a process's peak resident set (VmHWM) in MB.
func procPeakMB(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func selfPeakMB() float64 { return procPeakMB(os.Getpid()) }

// procCPUSeconds reads a process's user plus system CPU time. Fields 14
// and 15 of /proc/<pid>/stat are in clock ticks, which Linux reports to
// user space at 100 per second.
func procCPUSeconds(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100
}
