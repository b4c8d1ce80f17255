package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/clint"
	rt "repro/internal/runtime"
)

// buildLoad compiles lcfload into the test's scratch directory.
func buildLoad(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lcfload")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lcfload: %v\n%s", err, out)
	}
	return bin
}

// TestUsageErrorsExitTwo pins the exit-code contract: every invalid flag
// combination — including the flow-mode ones — exits 2 (usage error)
// before touching the network, never 1 (runtime failure).
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := buildLoad(t)
	cases := [][]string{
		{"-n", "0"},
		{"-load", "1.5"},
		{"-slots", "0"},
		{"-retries", "-1"},
		{"-pattern", "nonexistent"},
		{"-flows", "-1"},
		{"-flows", "10", "-flow-skew", "-0.5"},
		{"-flow-skew", "1.2"}, // flow-mode tuning without -flows
	}
	for _, args := range cases {
		err := exec.Command(bin, args...).Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("lcfload %v: %v, want exit status 2", args, err)
		}
	}
}

// TestRetransmitIsTheFirstTransmission plays the switch to a one-port
// lcfload that sends one frame: hello, read the frame, NACK it, read the
// retransmit, echo it as delivered. The retransmit must be the first
// transmission byte for byte — same flow id or class label, same Stamp —
// whichever data frame the mode speaks.
func TestRetransmitIsTheFirstTransmission(t *testing.T) {
	bin := buildLoad(t)
	for _, mode := range []struct {
		name string
		args []string
		flen int
		seq  func(frame []byte) (uint64, uint64, error) // Seq, Stamp
	}{
		{"flow", []string{"-flows", "10"}, clint.FlowDataLen, func(frame []byte) (uint64, uint64, error) {
			d, err := clint.DecodeFlowData(frame)
			return d.Seq, d.Stamp, err
		}},
		{"class", []string{"-class-mix", "1,1"}, clint.ClassDataLen, func(frame []byte) (uint64, uint64, error) {
			d, err := clint.DecodeClassData(frame)
			return d.Seq, d.Stamp, err
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			verdict := make(chan error, 1)
			go func() {
				verdict <- func() error {
					conn, err := ln.Accept()
					if err != nil {
						return err
					}
					defer conn.Close()
					conn.SetDeadline(time.Now().Add(10 * time.Second))
					if _, err := conn.Write(clint.Grant{GntVal: true}.Encode()); err != nil {
						return err
					}
					first, again := make([]byte, mode.flen), make([]byte, mode.flen)
					if _, err := io.ReadFull(conn, first); err != nil {
						return err
					}
					seq, stamp, err := mode.seq(first)
					if err != nil {
						return err
					}
					if _, err := conn.Write(clint.Nack{Seq: seq}.Encode()); err != nil {
						return err
					}
					if _, err := io.ReadFull(conn, again); err != nil {
						return err
					}
					if !bytes.Equal(first, again) {
						return errors.New("retransmit differs from the first transmission")
					}
					_, err = conn.Write(clint.Data{Seq: seq, Stamp: stamp}.Encode())
					if err == nil {
						io.Copy(io.Discard, conn) // until lcfload, settled, hangs up
					}
					return err
				}()
			}()
			args := append([]string{"-addr", ln.Addr().String(), "-n", "1", "-load", "1", "-slots", "1",
				"-retry-backoff", "1ms", "-drain", "5s"}, mode.args...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			ln.Close() // an lcfload that never dialed must not leave Accept waiting
			if verr := <-verdict; verr != nil {
				t.Fatalf("switch side: %v\n%s", verr, out)
			}
			if err != nil || !bytes.Contains(out, []byte("delivered 1, nacked 1, retransmitted 1, dropped 0, unaccounted 0")) {
				t.Fatalf("lcfload: %v\n%s", err, out)
			}
		})
	}
}

// TestGeneratorClockHoldsPeriod runs a one-port lcfload at 200 µs against
// a switch that echoes every data frame back as its delivery, and holds
// the generator to at least 0.8 of the asked slot rate with every frame
// delivered. On a time.Ticker it ran near a fifth of that rate, because
// the netpoller rounds a timer wait under 1 ms up to a millisecond. The
// best of three runs counts: a clock that cannot keep the period misses
// it in every run, while a busy host seldom stalls all three.
func TestGeneratorClockHoldsPeriod(t *testing.T) {
	const period, slots = 200 * time.Microsecond, 1000
	bin := buildLoad(t)
	asked, best := 1/period.Seconds(), 0.0
	for try := 1; try <= 3 && best < 0.8*asked; try++ {
		elapsed := runEchoed(t, bin, "-n", "1", "-load", "0.5", "-slots", fmt.Sprint(slots), "-slot", period.String())
		rate := slots / elapsed.Seconds()
		t.Logf("run %d: %.0f slots/s at %v (asked %.0f)", try, rate, period, asked)
		best = max(best, rate)
	}
	if best < 0.8*asked {
		t.Errorf("best of three runs of %d slots: %.0f slots/s, asked %.0f; a bare SlotClock held %.0f in this run",
			slots, best, asked, rt.ClockRate(period, slots))
	}
}

// runEchoed runs lcfload with args against a one-port switch that echoes
// every data frame back as its delivery (a frame from port 0 to port 0 is
// its own delivery), checks that every frame was delivered, and returns
// the elapsed time lcfload reports for its generator.
func runEchoed(t *testing.T, bin string, args ...string) time.Duration {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Write(clint.Grant{GntVal: true}.Encode()); err == nil {
			io.Copy(conn, conn)
		}
	}()
	out, err := exec.Command(bin, append([]string{"-addr", ln.Addr().String()}, args...)...).CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("dropped 0, unaccounted 0")) {
		t.Fatalf("lcfload: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`elapsed=(\S+)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no elapsed= in the report:\n%s", out)
	}
	elapsed, err := time.ParseDuration(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return elapsed
}
